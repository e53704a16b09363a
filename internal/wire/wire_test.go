package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
)

// testProtos mirror the two protocols on the envelope: the cluster link
// and the grant service (each package pins its own values in its golden
// test).
var testProtos = []Proto{
	{Name: "cluster", Magic: 0x57C1, Version: 2, MaxPayload: 64 << 20},
	{Name: "grant", Magic: 0x57C2, Version: 1, MaxPayload: 16 << 20},
}

// byteConn is an in-memory connection that reads from a fixed byte
// string; only Read is implemented.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestConnRoundTrip frames messages across a pipe for both protocols and
// checks they arrive intact, in order, with types preserved.
func TestConnRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 4096), PutString(nil, "hello over the wire"),
		bytes.Repeat([]byte{0xcd}, 3*readStep+5), {2}}
	for i := range testProtos {
		p := &testProtos[i]
		c1, c2 := net.Pipe()
		a, b := NewConn(c1, p), NewConn(c2, p)
		go func() {
			for i, pl := range payloads {
				a.Send(uint8(i+1), pl)
			}
		}()
		for i, want := range payloads {
			mt, got, err := b.Recv()
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if mt != uint8(i+1) || !bytes.Equal(got, want) {
				t.Fatalf("%s frame %d: type %d len %d, want type %d len %d",
					p.Name, i, mt, len(got), i+1, len(want))
			}
		}
		a.Close()
		b.Close()
	}
}

// TestConnRejectsCorruptFrames covers every header and checksum
// violation on both protocols, a frame of the other protocol included:
// each must fail with its own error, and only a version mismatch is a
// *VersionError.
func TestConnRejectsCorruptFrames(t *testing.T) {
	for i := range testProtos {
		p, other := &testProtos[i], &testProtos[1-i]
		good := p.AppendFrame(nil, 7, PutU64(nil, 42))
		flipped := bytes.Clone(good)
		flipped[headerLen] ^= 1
		version := bytes.Clone(good)
		version[2] = 99
		huge := bytes.Clone(good[:headerLen])
		copy(huge[4:], []byte{0xff, 0xff, 0xff, 0xff})
		for _, tc := range []struct {
			name  string
			frame []byte
			want  string
		}{
			{"other protocol", other.AppendFrame(nil, 7, PutU64(nil, 42)), "bad magic"},
			{"version", version, "version mismatch"},
			{"crc", flipped, "CRC mismatch"},
			{"length", huge, "exceeds limit"},
			{"truncated", good[:len(good)-1], "read payload"},
		} {
			c := NewConn(byteConn{r: bytes.NewReader(tc.frame)}, p)
			_, _, err := c.Recv()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), p.Name+": ") {
				t.Errorf("%s %s: err = %v, want %q", p.Name, tc.name, err, tc.want)
			}
			var verr *VersionError
			if errors.As(err, &verr) != (tc.name == "version") {
				t.Errorf("%s %s: err = %T, VersionError only on a version mismatch", p.Name, tc.name, err)
			} else if verr != nil && (verr.Peer != 99 || verr.Local != p.Version) {
				t.Errorf("%s: VersionError{Peer: %d, Local: %d}, want {99, %d}", p.Name, verr.Peer, verr.Local, p.Version)
			}
		}
	}
}

// TestConnLengthPrefixPinsNoMemory: a header announcing the largest legal
// payload, followed by nothing, must fail without the frame buffer growing
// much past what arrived — one read step, not MaxPayload.
func TestConnLengthPrefixPinsNoMemory(t *testing.T) {
	for i := range testProtos {
		p := &testProtos[i]
		hdr := p.AppendFrame(nil, 7, nil)[:headerLen]
		n := uint32(p.MaxPayload)
		hdr[4], hdr[5], hdr[6], hdr[7] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
		c := NewConn(byteConn{r: bytes.NewReader(hdr)}, p)
		if _, _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "read payload") {
			t.Fatalf("%s: err = %v, want a payload read error", p.Name, err)
		}
		if got := cap(c.rbuf); got > 128<<10 {
			t.Errorf("%s: a bare %d-byte length prefix grew the read buffer to %d bytes", p.Name, n, got)
		}
	}
}

// TestReaderLatchesError checks the cursor's overrun contract: the first
// overrun sets the error, later reads return zeros without panicking.
func TestReaderLatchesError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if got := r.U16(); got != 0x0102 {
		t.Fatalf("U16 = %#x", got)
	}
	if r.U32() != 0 || r.Err() == nil {
		t.Fatal("overrun not latched")
	}
	if r.U64() != 0 || r.U8() != 0 || r.Bytes(1) != nil || r.Str() != "" || r.F64() != 0 || r.Rem() != 0 {
		t.Fatal("reads after latched error not zero")
	}
}

// TestSplitAddr pins the address scheme mapping.
func TestSplitAddr(t *testing.T) {
	for addr, want := range map[string][2]string{
		"127.0.0.1:9301":   {"tcp", "127.0.0.1:9301"},
		"unix:/tmp/n.sock": {"unix", "/tmp/n.sock"},
		"/tmp/n.sock":      {"unix", "/tmp/n.sock"},
	} {
		network, address := SplitAddr(addr)
		if network != want[0] || address != want[1] {
			t.Errorf("SplitAddr(%q) = %q,%q want %q,%q", addr, network, address, want[0], want[1])
		}
	}
}

// FuzzFrame feeds arbitrary bytes to Conn.Recv under both protocols. The
// only acceptable outcomes are frames whose AppendFrame re-encoding is
// exactly the bytes they were read from, or an error — never a panic, and
// never a read buffer grown past the protocol's payload cap.
func FuzzFrame(f *testing.F) {
	for i := range testProtos {
		p := &testProtos[i]
		f.Add(p.AppendFrame(nil, 1, []byte("payload")))
		f.Add(p.AppendFrame(p.AppendFrame(nil, 2, nil), 3, PutU64(nil, 7)))
	}
	f.Add([]byte{0x57, 0xC2, 1, 3, 0x01, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := range testProtos {
			p := &testProtos[i]
			c := NewConn(byteConn{r: bytes.NewReader(data)}, p)
			off := 0
			for {
				mt, payload, err := c.Recv()
				if cap(c.rbuf) > p.MaxPayload+crcLen {
					t.Fatalf("%s: read buffer grew to %d", p.Name, cap(c.rbuf))
				}
				if err != nil {
					break
				}
				n := headerLen + len(payload) + crcLen
				if off+n > len(data) {
					t.Fatalf("%s: frame of %d bytes at %d overruns the %d-byte input", p.Name, n, off, len(data))
				}
				if got := p.AppendFrame(nil, mt, payload); !bytes.Equal(got, data[off:off+n]) {
					t.Fatalf("%s: re-encoded frame %x, read from %x", p.Name, got, data[off:off+n])
				}
				off += n
			}
		}
	})
}

// startEcho serves b until it closes: every frame it receives goes back
// out unchanged.
func startEcho(b *Conn) {
	go func() {
		for {
			mt, payload, err := b.Recv()
			if err != nil || b.Send(mt, payload) != nil {
				return
			}
		}
	}()
}

// TestConnRoundTripZeroAlloc pins the steady-state frame path, a Send and
// a Recv on each end of a net.Pipe, at zero allocations under both
// protocols: the frame buffers and the header are reused.
func TestConnRoundTripZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 256)
	for i := range testProtos {
		p := &testProtos[i]
		c1, c2 := net.Pipe()
		a, b := NewConn(c1, p), NewConn(c2, p)
		startEcho(b)
		roundTrip := func() {
			if err := a.Send(7, payload); err != nil {
				t.Fatal(err)
			}
			if _, got, err := a.Recv(); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s: echo %d bytes, err %v", p.Name, len(got), err)
			}
		}
		roundTrip() // size both ends' buffers
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
			t.Errorf("%s: Send+Recv round trip allocates %v times, want 0", p.Name, allocs)
		}
		a.Close()
		b.Close()
	}
}

// BenchmarkConnRecv times one frame's round trip — Send, the peer's Recv
// and echo, Recv — over a net.Pipe, per protocol; 0 allocs/op.
func BenchmarkConnRecv(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 256)
	for i := range testProtos {
		p := &testProtos[i]
		b.Run(p.Name, func(b *testing.B) {
			c1, c2 := net.Pipe()
			a, peer := NewConn(c1, p), NewConn(c2, p)
			defer a.Close()
			defer peer.Close()
			startEcho(peer)
			roundTrip := func() {
				if err := a.Send(7, payload); err != nil {
					b.Fatal(err)
				}
				if _, _, err := a.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			roundTrip() // size both ends' buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}
