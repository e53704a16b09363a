package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"testing"

	"wdmsched/internal/core"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// TestTransportRoundTrip frames every cluster message type across a pipe
// and checks they arrive intact, in order, with types preserved.
func TestTransportRoundTrip(t *testing.T) {
	c1, c2 := net.Pipe()
	a, b := wire.NewConn(c1, &proto), wire.NewConn(c2, &proto)
	defer a.Close()
	defer b.Close()
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	go func() {
		for mt := msgHello; mt <= msgError; mt++ {
			a.Send(mt, payloads[int(mt)%len(payloads)])
		}
	}()
	for want := msgHello; want <= msgError; want++ {
		mt, got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if mt != want || !bytes.Equal(got, payloads[int(want)%len(payloads)]) {
			t.Fatalf("frame %s: type %d len %d, want len %d",
				proto.Types[want], mt, len(got), len(payloads[int(want)%len(payloads)]))
		}
	}
}

// TestReaderLatchesError checks that a truncated occupancy bitmap latches
// the cursor's error, leaves the destination untouched, and that later
// reads return zeros without panicking.
func TestReaderLatchesError(t *testing.T) {
	dst := []bool{true, false, true, false, true, false, true, false, true}
	r := wire.NewReader([]byte{0})
	readOccupied(&r, dst)
	if r.Err() == nil {
		t.Fatal("overrun not latched")
	}
	for i, o := range dst {
		if o != (i%2 == 0) {
			t.Fatalf("bit %d overwritten by a truncated bitmap", i)
		}
	}
	if r.U32() != 0 || r.U8() != 0 || r.Bytes(1) != nil || r.Str() != "" {
		t.Fatal("reads after latched error not zero")
	}
}

// TestTransportRejectsBadHeader covers a grant-protocol frame, a version
// mismatch and a length past the cluster payload cap.
func TestTransportRejectsBadHeader(t *testing.T) {
	for _, tc := range []struct{ name, frame, want string }{
		{"grant frame", "57c201060000000000000000", "bad magic"}, // grant bye
		{"bad version", "57c163070000000000000000", "version mismatch"},
		{"huge length", "57c10207ffffffff", "exceeds limit"},
	} {
		frame, _ := hex.DecodeString(tc.frame)
		c1, c2 := net.Pipe()
		tr := wire.NewConn(c2, &proto)
		go func() { c1.Write(frame); c1.Close() }()
		_, _, err := tr.Recv()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		var verr *wire.VersionError
		if errors.As(err, &verr) != (tc.name == "bad version") {
			t.Errorf("%s: err = %T, VersionError only on a version mismatch", tc.name, err)
		}
		tr.Close()
	}
}

// TestOccupiedBitmapRoundTrip exercises the bitmap packing at widths
// around the byte boundary.
func TestOccupiedBitmapRoundTrip(t *testing.T) {
	for _, k := range []int{1, 7, 8, 9, 16, 33} {
		src := make([]bool, k)
		for i := range src {
			src[i] = i%3 == 0
		}
		b := appendOccupied(nil, src)
		if len(b) != occupiedBitmapLen(k) {
			t.Fatalf("k=%d: bitmap %d bytes, want %d", k, len(b), occupiedBitmapLen(k))
		}
		dst := make([]bool, k)
		r := wire.NewReader(b)
		readOccupied(&r, dst)
		if r.Err() != nil {
			t.Fatalf("k=%d: %v", k, r.Err())
		}
		for i := range src {
			if src[i] != dst[i] {
				t.Fatalf("k=%d: bit %d flipped", k, i)
			}
		}
	}
}

// TestResultRoundTrip encodes and decodes scheduling decisions, including
// the break-channel marker, and checks Granted is re-derived correctly.
func TestResultRoundTrip(t *testing.T) {
	const k = 8
	src := core.NewResult(k)
	src.ByOutput[1] = 3
	src.ByOutput[4] = 4
	src.ByOutput[7] = 0
	src.Granted[3] = 1
	src.Granted[4] = 1
	src.Granted[0] = 1
	src.Size = 3
	src.BreakChannel = 4
	b := appendResult(nil, src)
	got := core.NewResult(k)
	r := wire.NewReader(b)
	if err := readResult(&r, k, got); err != nil {
		t.Fatal(err)
	}
	if got.Size != src.Size || got.BreakChannel != src.BreakChannel {
		t.Fatalf("size/break %d/%d, want %d/%d", got.Size, got.BreakChannel, src.Size, src.BreakChannel)
	}
	for i := 0; i < k; i++ {
		if got.ByOutput[i] != src.ByOutput[i] || got.Granted[i] != src.Granted[i] {
			t.Fatalf("wavelength %d diverged", i)
		}
	}

	// Inconsistent size must be rejected.
	bad := appendResult(nil, src)
	bad[0], bad[1] = 0, 9 // claim size 9
	r = wire.NewReader(bad)
	if err := readResult(&r, k, got); err == nil {
		t.Fatal("inconsistent result size accepted")
	}
}

// recordConn captures what a wire.Conn writes.
type recordConn struct {
	net.Conn
	buf []byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// TestWireGolden pins the cluster wire format byte for byte: one frame
// per message type, sent through a wire.Conn. Config comes from the
// controller's encoder and grants from the node's schedule handler (its
// t1..t4 clock stamps zeroed); the other payloads follow the package
// doc's layouts.
func TestWireGolden(t *testing.T) {
	if proto.Magic != 0x57C1 || proto.Version != 2 || proto.MaxPayload != 64<<20 {
		t.Fatalf("cluster protocol moved: %#04x v%d cap %d", proto.Magic, proto.Version, proto.MaxPayload)
	}
	ctrl := &Controller{cfg: ControllerConfig{Addrs: []string{"a", "b"}, N: 4,
		Conv: wavelength.MustNew(wavelength.Circular, 6, 1, 1), Scheduler: "exact"}}
	counts := [][]int{{1, 0, 0, 2, 0, 0}, {0, 3, 0, 0, 0, 1}}
	plain := buildSchedulePayload(1, 1, 6, []int{0, 2}, counts, nil)
	masked := buildSchedulePayload(2, 9, 6, []int{0, 2}, counts, []byte{0, 1, 2, 0, 1, 2})
	s := newTestSession(t, 4, 6, []int{0, 2})
	grants := func(p []byte) []byte {
		g, err := s.handleSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		g = append([]byte(nil), g...)
		clear(g[24:56]) // t1..t4
		return g
	}
	for _, tc := range []struct {
		name    string
		mt      uint8
		payload []byte
		want    string
	}{
		{"hello", msgHello, wire.PutU64(nil, 0x0102030405060708),
			"57c102010000000801020304050607083fca88c5"},
		{"config", msgConfig, (&link{ctrl: ctrl, id: 1}).encodeConfig(),
			"57c102030000002400000004000000000600000001000000010005657861637400000002000000010000000364ed2562"},
		{"schedule", msgSchedule, plain,
			"57c102050000005000000000000000010000000000000001000000000000abcd000000000010000000000000075bcd15000000020000000000010000000000020000000000000000000200000003000000000000000100004b91280b"},
		{"schedule-masked", msgSchedule, masked,
			"57c102050000005c00000000000000020000000000000009000000000000abcd000000000020000000000000075bcd1500000002000000000001000000000002000000000001000102000102000000020000000300000000000000010001000102000102918159eb"},
		{"grants", msgGrants, grants(plain),
			"57c10206000000660000000000000001000000000000000100000000001000000000000000000000000000000000000000000000000000000000000000000000000000020000000000030005ffffffff00030003ffff0000000000000200040000000100010001ffff0005ffff00bf02e317"},
		{"grants-shadow", msgGrants, grants(masked),
			"57c102060000008600000000000000020000000000000009000000000020000000000000000000000000000000000000000000000000000000000000000000000000000200000000000200000000ffffffff0003ffffffff0100030005ffffffff00030003ffff0000000000020002000000010001ffffffffffffffff0100040000000100010001ffff0005fffff7303d5e"},
		{"ping", msgPing, wire.PutU64(nil, 7),
			"57c10207000000080000000000000007fb464aca"},
		{"error", msgError, wire.PutString(wire.PutU64(nil, 3), "boom"),
			"57c102090000000e00000000000000030004626f6f6d16111c82"},
	} {
		rc := &recordConn{}
		if err := wire.NewConn(rc, &proto).Send(tc.mt, tc.payload); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(rc.buf); got != tc.want {
			t.Errorf("%s frame moved:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
