package grant

import (
	"fmt"
	"net"
	"sync"
	"time"

	"wdmsched/internal/wire"
)

// Client is one grant-service session, used by wdmload and tests. One
// goroutine may Submit while another Recvs (the connection's read and
// write halves are independent); Submit/Bye themselves are serialized
// by an internal mutex.
type Client struct {
	tr *wire.Conn

	// Shape and effective policy echoed by the server at handshake.
	N, K   int
	Policy Policy

	wmu sync.Mutex
	enc []byte

	notices []Notice // reused Recv decode buffer
	ledger  Ledger
}

// Dial connects to a grant server, performs the hello handshake for the
// given tenant and returns the ready client.
func Dial(addr, tenant string) (*Client, error) {
	return DialTimeout(addr, tenant, 10*time.Second)
}

// DialTimeout is Dial with an explicit dial-and-handshake deadline.
func DialTimeout(addr, tenant string, timeout time.Duration) (*Client, error) {
	network, address := wire.SplitAddr(addr)
	conn, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, fmt.Errorf("grant: dial %s: %w", addr, err)
	}
	c := &Client{tr: wire.NewConn(conn, &proto)}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	const nonce = 0x77646d6772616e74 // "wdmgrant"
	c.enc = encHello(c.enc[:0], nonce, tenant)
	if err := c.tr.Send(msgHello, c.enc); err != nil {
		conn.Close()
		return nil, err
	}
	mt, payload, err := c.tr.Recv()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if mt == msgError {
		r := wire.NewReader(payload)
		msg := r.Str()
		conn.Close()
		return nil, fmt.Errorf("grant: server rejected session: %s", msg)
	}
	if mt != msgHelloAck {
		conn.Close()
		return nil, fmt.Errorf("grant: expected hello-ack, got %v", proto.TypeName(mt))
	}
	r := wire.NewReader(payload)
	if got := r.U64(); got != nonce {
		conn.Close()
		return nil, fmt.Errorf("grant: hello-ack nonce mismatch")
	}
	c.N = int(r.U32())
	c.K = int(r.U32())
	c.Policy.Class = int(r.U8())
	c.Policy.Rate = r.F64()
	c.Policy.Burst = r.F64()
	c.Policy.Queue = int(r.U32())
	if r.Err() != nil {
		conn.Close()
		return nil, fmt.Errorf("grant: malformed hello-ack")
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Submit sends one batch of requests. The request IDs are the client's
// to choose; every submitted ID comes back in exactly one verdict.
func (c *Client) Submit(reqs []Req) error {
	if len(reqs) > maxBatch {
		return fmt.Errorf("grant: batch of %d exceeds the %d-request frame cap", len(reqs), maxBatch)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := wire.PutU32(c.enc[:0], uint32(len(reqs)))
	for _, q := range reqs {
		b = wire.PutU64(b, q.ID)
		b = wire.PutU32(b, q.In)
		b = wire.PutU16(b, q.Wave)
		b = wire.PutU32(b, q.Dest)
		b = wire.PutU16(b, q.Dur)
	}
	c.enc = b
	return c.tr.Send(msgSubmit, b)
}

// Bye tells the server the client is done submitting and has collected
// every verdict; the server replies with the session ledger (delivered
// through Recv) and closes the session.
func (c *Client) Bye() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.tr.Send(msgBye, c.enc[:0])
}

// Event is one server-to-client frame, as returned by Recv. Exactly one
// of the fields is set.
type Event struct {
	// Notices is a verdict batch; the slice is valid until the next
	// Recv call.
	Notices []Notice
	// Drain reports the server announced a graceful drain: nothing new
	// will be admitted, but queued requests still get verdicts.
	Drain bool
	// Ledger is the session's final accounting; the server closes the
	// session after sending it.
	Ledger *Ledger
}

// Recv reads one frame from the server. Server-sent error frames are
// surfaced as Go errors.
func (c *Client) Recv() (Event, error) {
	mt, payload, err := c.tr.Recv()
	if err != nil {
		return Event{}, err
	}
	r := wire.NewReader(payload)
	switch mt {
	case msgVerdicts:
		count := int(r.U32())
		if r.Err() != nil || count < 0 || count > maxBatch || r.Rem() != count*verdictItemLen {
			return Event{}, fmt.Errorf("grant: malformed verdicts frame")
		}
		c.notices = c.notices[:0]
		for i := 0; i < count; i++ {
			c.notices = append(c.notices, Notice{
				ID:      r.U64(),
				Verdict: Verdict(r.U8()),
				Slot:    r.I64(),
				Channel: r.I16(),
				WaitMS:  r.U32(),
			})
		}
		return Event{Notices: c.notices}, nil
	case msgDrain:
		return Event{Drain: true}, nil
	case msgLedger:
		c.ledger = decLedger(&r)
		if r.Err() != nil {
			return Event{}, fmt.Errorf("grant: malformed ledger frame")
		}
		return Event{Ledger: &c.ledger}, nil
	case msgError:
		return Event{}, fmt.Errorf("grant: server error: %s", r.Str())
	}
	return Event{}, fmt.Errorf("grant: unexpected frame %v", proto.TypeName(mt))
}

// SetRecvDeadline bounds the next Recv; zero clears it.
func (c *Client) SetRecvDeadline(t time.Time) error { return c.tr.SetReadDeadline(t) }

// Close tears the connection down.
func (c *Client) Close() error { return c.tr.Close() }
