package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"wdmsched/internal/metrics"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// buildRawFrame composes a whole wire frame with an arbitrary version
// byte — the v1-peer simulator for the version-negotiation tests.
func buildRawFrame(version, mt uint8, payload []byte) []byte {
	p := proto
	p.Version = version
	return p.AppendFrame(nil, mt, payload)
}

func testConv(t *testing.T) wavelength.Conversion {
	t.Helper()
	return wavelength.MustNew(wavelength.Circular, 4, 1, 1)
}

// TestControllerDialFailure: an unreachable node must fail NewController
// after DialTimeout with the dial error, not hang.
func TestControllerDialFailure(t *testing.T) {
	_, err := NewController(ControllerConfig{
		Addrs:       []string{"127.0.0.1:1"}, // reserved port, nothing listens
		N:           2,
		Conv:        testConv(t),
		Scheduler:   "exact",
		DialTimeout: 200 * time.Millisecond,
		RPCTimeout:  100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("controller connected to a dead address")
	}
	if !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("dial error does not name the node: %v", err)
	}
}

// TestRetryDelayBounds pins the backoff/jitter contract: attempt n waits
// at least base·2^(n−1) and at most twice that.
func TestRetryDelayBounds(t *testing.T) {
	rng := traffic.NewRNG(1)
	base := 2 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		lo := base << (attempt - 1)
		hi := 2 * lo
		for i := 0; i < 200; i++ {
			d := retryDelay(rng, base, attempt)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// The clamp keeps absurd attempt numbers from overflowing the shift.
	if d := retryDelay(rng, base, 100); d <= 0 {
		t.Fatalf("clamped delay %v not positive", d)
	}
}

// TestTransportDeadlineExpiry: a read past its deadline must surface a
// net.Error timeout (what the controller counts as a deadline miss).
func TestTransportDeadlineExpiry(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	tr := wire.NewConn(c1, &proto)
	if err := tr.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, _, err := tr.Recv()
	if err == nil {
		t.Fatal("read with no peer data returned")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("expected a timeout, got %v", err)
	}
}

// TestTransportFrameCounters: each direction's byte and frame counters
// must track exactly what crossed the wire.
func TestTransportFrameCounters(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a, b := wire.NewConn(c1, &proto), wire.NewConn(c2, &proto)
	var aOut, aOutBytes, bIn, bInBytes metrics.Counter
	a.FramesOut, a.BytesOut = &aOut, &aOutBytes
	b.FramesIn, b.BytesIn = &bIn, &bInBytes
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if _, _, err := b.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := a.Send(msgPing, wire.PutU64(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if aOut.Value() != 3 || bIn.Value() != 3 {
		t.Fatalf("frame counters: sent %d received %d, want 3 and 3", aOut.Value(), bIn.Value())
	}
	if aOutBytes.Value() != bInBytes.Value() || aOutBytes.Value() == 0 {
		t.Fatalf("byte counters diverged: sent %d received %d", aOutBytes.Value(), bInBytes.Value())
	}
}

// TestControllerRedialsAfterTeardown: a listener that tears down the first
// connections before serving properly must not defeat the controller's
// dial retry loop.
func TestControllerRedialsAfterTeardown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	node := NewNode(NodeConfig{})
	go func() {
		// First two sessions die immediately — mid-handshake teardown.
		for i := 0; i < 2; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
		node.Serve(ln)
	}()
	defer node.Close()
	ctrl, err := NewController(ControllerConfig{
		Addrs:       []string{ln.Addr().String()},
		N:           2,
		Conv:        testConv(t),
		Scheduler:   "exact",
		DialTimeout: 5 * time.Second,
		RPCTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("controller never recovered from torn-down dials: %v", err)
	}
	ctrl.Close()
}

// TestVersionMismatchControllerAgainstV1Node: a v2 controller meeting a
// node that answers in protocol v1 must fail fast — well before
// DialTimeout — with an error naming both versions.
func TestVersionMismatchControllerAgainstV1Node(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				// A v1 node: swallow whatever arrives and answer with a
				// v1-framed hello-ack.
				buf := make([]byte, 1024)
				if _, err := c.Read(buf); err != nil {
					return
				}
				c.Write(buildRawFrame(1, msgHelloAck, wire.PutU64(nil, 0)))
				time.Sleep(time.Second)
			}(c)
		}
	}()
	start := time.Now()
	_, err = NewController(ControllerConfig{
		Addrs:       []string{ln.Addr().String()},
		N:           2,
		Conv:        testConv(t),
		Scheduler:   "exact",
		DialTimeout: 30 * time.Second, // fail-fast must not wait for this
		RPCTimeout:  500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("v2 controller accepted a v1 node")
	}
	var verr *wire.VersionError
	if !errors.As(err, &verr) {
		t.Fatalf("error is not a VersionError: %v", err)
	}
	if verr.Peer != 1 || verr.Local != proto.Version {
		t.Fatalf("VersionError{Peer: %d, Local: %d}, want {1, %d}", verr.Peer, verr.Local, proto.Version)
	}
	for _, want := range []string{"v1", "v2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("version mismatch took %v to surface; fail-fast path broken", elapsed)
	}
}

// TestVersionMismatchV1ControllerAgainstNode: a real node receiving a
// v1-framed hello must reply with an error frame stamped v1 — so the old
// controller can decode it — whose message names both versions.
func TestVersionMismatchV1ControllerAgainstNode(t *testing.T) {
	addr, _ := startNode(t, "tcp")
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v1 := proto
	v1.Version = 1
	tr := wire.NewConn(c, &v1)
	if err := tr.Send(msgHello, wire.PutU64(nil, 42)); err != nil {
		t.Fatal(err)
	}
	tr.SetReadDeadline(time.Now().Add(2 * time.Second))
	mt, payload, err := tr.Recv()
	if err != nil {
		t.Fatalf("node sent no v1-framed reply: %v", err)
	}
	if mt != msgError {
		t.Fatalf("rejection type %d, want %d", mt, msgError)
	}
	r := wire.NewReader(payload)
	r.U64() // seq
	msg := r.Str()
	if r.Err() != nil {
		t.Fatalf("error payload malformed: %v", r.Err())
	}
	for _, want := range []string{"v1", "v2"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("rejection %q does not name %s", msg, want)
		}
	}
	// The session must be closed after the rejection.
	if _, _, err := tr.Recv(); err == nil {
		t.Fatal("node kept the session open after a version mismatch")
	}
}
