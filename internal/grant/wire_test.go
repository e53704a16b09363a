package grant

import (
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmsched/internal/wire"
)

func TestHelloAckRoundTrip(t *testing.T) {
	pol := Policy{Class: 3, Rate: 12345.5, Burst: 64, Queue: 512}
	payload := encHelloAck(nil, 42, 16, 32, pol)
	r := wire.NewReader(payload)
	if got := r.U64(); got != 42 {
		t.Fatalf("nonce = %d", got)
	}
	if n, k := r.U32(), r.U32(); n != 16 || k != 32 {
		t.Fatalf("shape = %d×%d", n, k)
	}
	got := Policy{Class: int(r.U8()), Rate: r.F64(), Burst: r.F64(), Queue: int(r.U32())}
	if r.Err() != nil || r.Rem() != 0 {
		t.Fatalf("decode: err=%v rem=%d", r.Err(), r.Rem())
	}
	if got != pol {
		t.Fatalf("policy = %+v, want %+v", got, pol)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	l := Ledger{Submitted: 100, Admitted: 90, Granted: 70, Rejected: 20, Retried: 10}
	payload := encLedger(nil, l)
	r := wire.NewReader(payload)
	got := decLedger(&r)
	if r.Err() != nil || got != l {
		t.Fatalf("ledger round-trip: %+v (err %v)", got, r.Err())
	}
	if !l.Balanced() {
		t.Fatal("ledger should balance")
	}
	l.Retried = 11
	if l.Balanced() {
		t.Fatal("imbalanced ledger reported balanced")
	}
}

// TestReaderTruncationLatches decodes a ledger cut one byte short: the
// overrun latches the cursor's error and later reads return zero.
func TestReaderTruncationLatches(t *testing.T) {
	payload := encLedger(nil, Ledger{Submitted: 5, Admitted: 4, Granted: 3, Rejected: 1, Retried: 1})
	r := wire.NewReader(payload[:len(payload)-1])
	got := decLedger(&r)
	if r.Err() == nil {
		t.Fatal("overrun not latched")
	}
	if got.Submitted != 5 || got.Retried != 0 {
		t.Fatalf("truncated ledger = %+v, want fields up to the cut and zero after", got)
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("post-error read = %d, want 0", v)
	}
}

// TestTransportFraming sends a grant error frame across a pipe and reads
// its string payload back.
func TestTransportFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ta, tb := wire.NewConn(a, &proto), wire.NewConn(b, &proto)
	go func() {
		ta.Send(msgError, wire.PutString(nil, "hello over the grant wire"))
	}()
	mt, payload, err := tb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if mt != msgError {
		t.Fatalf("type = %d", mt)
	}
	r := wire.NewReader(payload)
	if s := r.Str(); s != "hello over the grant wire" || r.Err() != nil || r.Rem() != 0 {
		t.Fatalf("payload = %q (err %v, %d bytes left)", s, r.Err(), r.Rem())
	}
}

// TestTransportRejectsCorruptFrames covers a cluster-protocol frame, a
// version mismatch (a *wire.VersionError, as on the cluster link), a CRC
// mismatch and a length past the grant payload cap.
func TestTransportRejectsCorruptFrames(t *testing.T) {
	for _, tc := range []struct{ name, frame, want string }{
		{"cluster frame", "57c10207000000080000000000000007fb464aca", "bad magic"}, // cluster ping
		{"version", "57c263010000000000000000", "version mismatch"},
		{"crc", "57c2010100000001" + "78" + "deadbeef", "CRC mismatch"},
		{"length", "57c20101ffffffff00000000", "exceeds limit"},
	} {
		frame, _ := hex.DecodeString(tc.frame)
		a, b := net.Pipe()
		go func() { a.Write(frame) }()
		tr := wire.NewConn(b, &proto)
		tr.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err := tr.Recv()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		var verr *wire.VersionError
		if errors.As(err, &verr) != (tc.name == "version") {
			t.Errorf("%s: err = %T, VersionError only on a version mismatch", tc.name, err)
		}
		a.Close()
		b.Close()
	}
}

func TestVerdictPredicates(t *testing.T) {
	for _, tc := range []struct {
		v                      Verdict
		granted, reject, retry bool
	}{
		{VerdictGranted, true, false, false},
		{VerdictRejected, false, true, false},
		{VerdictRejectedAdmission, false, true, false},
		{VerdictRetryBucket, false, false, true},
		{VerdictRetryQueue, false, false, true},
		{VerdictRetryDrain, false, false, true},
	} {
		if tc.v.Granted() != tc.granted || tc.v.Rejected() != tc.reject || tc.v.Retry() != tc.retry {
			t.Errorf("%v: predicates granted=%v rejected=%v retry=%v", tc.v, tc.v.Granted(), tc.v.Rejected(), tc.v.Retry())
		}
		if strings.Contains(tc.v.String(), "verdict(") {
			t.Errorf("%d has no name", tc.v)
		}
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

// TestWireGolden pins the grant wire format byte for byte: one frame per
// message type, each built by the code that sends it in production —
// the client for submit and bye, the session egress buffer for verdicts
// and drain, a wire.Conn for the rest.
func TestWireGolden(t *testing.T) {
	if proto.Magic != 0x57C2 || proto.Version != 1 || proto.MaxPayload != 16<<20 {
		t.Fatalf("grant protocol moved: %#04x v%d cap %d", proto.Magic, proto.Version, proto.MaxPayload)
	}
	frame := func(mt uint8, payload []byte) []byte {
		rc := &recordConn{}
		if err := wire.NewConn(rc, &proto).Send(mt, payload); err != nil {
			t.Fatal(err)
		}
		return rc.buf
	}
	rc := &recordConn{}
	client := &Client{tr: wire.NewConn(rc, &proto)}
	if err := client.Submit([]Req{{ID: 1, In: 2, Wave: 3, Dest: 0, Dur: 1},
		{ID: 0xFFFFFFFFFF, In: 0xFFFFFFFF, Wave: 7, Dest: 0x80000000, Dur: 65535}}); err != nil {
		t.Fatal(err)
	}
	submit := rc.buf
	rc.buf = nil
	if err := client.Bye(); err != nil {
		t.Fatal(err)
	}
	sess := &session{egressMax: 1 << 20}
	sess.wcond = sync.NewCond(&sess.wmu)
	if err := (&Service{}).writeVerdicts(sess, []Notice{
		{ID: 9, Verdict: VerdictGranted, Slot: 12, Channel: 5},
		{ID: 10, Verdict: VerdictRetryQueue, Slot: -1, Channel: -1, WaitMS: 250},
	}); err != nil {
		t.Fatal(err)
	}
	verdicts := sess.out
	sess.out = nil
	if err := sess.enqueueLocked(msgDrain, wire.PutString(nil, "draining")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello", frame(msgHello, encHello(nil, 0x77646d6772616e74, "gold")),
			"57c201010000000e77646d6772616e740004676f6c64a8cedca9"},
		{"helloAck", frame(msgHelloAck, encHelloAck(nil, 42, 16, 32, Policy{Class: 1, Rate: 1000.5, Burst: 64, Queue: 512})),
			"57c2010200000025000000000000002a000000100000002001408f4400000000004050000000000000000002001f11d4ec"},
		{"submit", submit,
			"57c201030000002c000000020000000000000001000000020003000000000001000000ffffffffffffffffff000780000000ffffbe2c4e24"},
		{"verdicts", verdicts,
			"57c201040000003200000002000000000000000901000000000000000c000500000000000000000000000a05ffffffffffffffffffff000000fa5ff53208"},
		{"drain", sess.out,
			"57c201050000000a0008647261696e696e6794d9aea3"},
		{"bye", rc.buf,
			"57c201060000000000000000"},
		{"ledger", frame(msgLedger, encLedger(nil, Ledger{Submitted: 100, Admitted: 90, Granted: 70, Rejected: 20, Retried: 10})),
			"57c20107000000280000000000000064000000000000005a00000000000000460000000000000014000000000000000a3fd35cf0"},
		{"error", frame(msgError, wire.PutString(nil, "malformed submit")),
			"57c201080000001200106d616c666f726d6564207375626d69746830ca3f"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("%s frame moved:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
