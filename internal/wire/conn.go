package wire

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"time"

	"wdmsched/internal/fault"
	"wdmsched/internal/metrics"
)

// Conn frames one protocol's messages over one connection. It is not safe
// for concurrent use by itself: one goroutine may read while another
// writes, but each direction needs a single user (or the caller's lock).
// Both frame buffers are reused, so the steady-state send/receive path
// does not allocate.
type Conn struct {
	c  net.Conn
	p  *Proto
	br *bufio.Reader

	wbuf []byte          // whole outgoing frame: header + payload + crc
	rbuf []byte          // incoming payload + crc
	hdr  [headerLen]byte // incoming header; a field, since a local escapes through io.ReadFull

	// Faults, when non-nil, injects frame-level drop/delay/duplication on
	// both directions.
	Faults *fault.TransportFaults

	// BytesOut/BytesIn, when non-nil, total the wire traffic (frames
	// actually written or read, headers and checksums included);
	// FramesOut/FramesIn count the frames themselves. On a fault-free link
	// one end's FramesOut equals the other end's FramesIn.
	BytesOut, BytesIn   *metrics.Counter
	FramesOut, FramesIn *metrics.Counter
}

// readStep is the read buffer size and the most one payload read asks the
// frame buffer to grow by.
const readStep = 64 << 10

// NewConn wraps c for protocol p.
func NewConn(c net.Conn, p *Proto) *Conn {
	return &Conn{c: c, p: p, br: bufio.NewReaderSize(c, readStep)}
}

// Send frames and writes one message. Injected faults apply here: a
// dropped frame is simply not written (the peer sees silence), a delayed
// frame stalls the caller, a duplicated frame is written twice.
func (c *Conn) Send(mt uint8, payload []byte) error {
	if len(payload) > c.p.MaxPayload {
		return fmt.Errorf("%s: payload %d exceeds limit", c.p.Name, len(payload))
	}
	c.wbuf = c.p.AppendFrame(c.wbuf[:0], mt, payload)
	writes := 1
	if c.Faults != nil {
		fate := c.Faults.Fate()
		if fate.Delay > 0 {
			time.Sleep(fate.Delay)
		}
		if fate.Drop {
			writes = 0
		} else if fate.Duplicate {
			writes = 2
		}
	}
	for i := 0; i < writes; i++ {
		if err := c.WriteFrames(c.wbuf, 1); err != nil {
			return fmt.Errorf("%s: write %v: %w", c.p.Name, c.p.TypeName(mt), err)
		}
	}
	return nil
}

// WriteFrames writes b, which holds frames already framed by AppendFrame,
// and counts them as sent.
func (c *Conn) WriteFrames(b []byte, frames int64) error {
	if _, err := c.c.Write(b); err != nil {
		return err
	}
	if c.BytesOut != nil {
		c.BytesOut.Add(int64(len(b)))
	}
	if c.FramesOut != nil {
		c.FramesOut.Add(frames)
	}
	return nil
}

// Recv reads one frame and returns its type and payload. The payload
// slice is valid until the next Recv. Inbound fault injection drops whole
// frames after they are read off the wire, modeling a lost reply.
func (c *Conn) Recv() (uint8, []byte, error) {
	for {
		mt, payload, err := c.recv()
		if err != nil || c.Faults == nil || !c.Faults.Fate().Drop {
			return mt, payload, err
		}
	}
}

func (c *Conn) recv() (uint8, []byte, error) {
	p := c.p
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, fmt.Errorf("%s: read header: %w", p.Name, err)
	}
	if m := uint16(hdr[0])<<8 | uint16(hdr[1]); m != p.Magic {
		return 0, nil, fmt.Errorf("%s: bad magic %#04x", p.Name, m)
	}
	if hdr[2] != p.Version {
		return 0, nil, &VersionError{Proto: p.Name, Peer: hdr[2], Local: p.Version}
	}
	mt := hdr[3]
	n := int(uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7]))
	if n > p.MaxPayload {
		return 0, nil, fmt.Errorf("%s: payload length %d exceeds limit", p.Name, n)
	}
	// Allocate at most one read step up front and grow with the bytes that
	// arrive, so a length prefix alone cannot pin MaxPayload of memory.
	need := n + crcLen
	if cap(c.rbuf) < need {
		c.rbuf = make([]byte, 0, min(need, readStep))
	}
	buf := c.rbuf[:0]
	for len(buf) < need {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(need-len(buf), readStep))
		}
		m, err := io.ReadFull(c.br, buf[len(buf):min(cap(buf), need)])
		buf = buf[:len(buf)+m]
		if err != nil {
			c.rbuf = buf
			return 0, nil, fmt.Errorf("%s: read payload: %w", p.Name, err)
		}
	}
	c.rbuf = buf
	if c.BytesIn != nil {
		c.BytesIn.Add(int64(headerLen + n + crcLen))
	}
	if c.FramesIn != nil {
		c.FramesIn.Inc()
	}
	payload := buf[:n]
	wantCRC := uint32(buf[n])<<24 | uint32(buf[n+1])<<16 | uint32(buf[n+2])<<8 | uint32(buf[n+3])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, nil, fmt.Errorf("%s: %v frame CRC mismatch (got %#08x want %#08x)", p.Name, p.TypeName(mt), got, wantCRC)
	}
	return mt, payload, nil
}

// SetReadDeadline bounds the next read(s); zero clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// SetWriteDeadline bounds the next write(s); zero clears it.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.c.SetWriteDeadline(t) }

// CloseWrite half-closes the connection (FIN without RST) when the
// underlying conn supports it; TCP and unix sockets both do.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.c.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return fmt.Errorf("%s: connection does not support half-close", c.p.Name)
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }
