package cluster

import (
	"net"
	"runtime"
	"testing"
	"time"

	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// startSilentNode listens on loopback TCP and plays a node that completes
// the hello/config handshake on every session and then never answers a
// schedule frame. stop closes the listener, so later redials are refused;
// sessions already open stay silent until the controller drops them.
func startSilentNode(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				tr := wire.NewConn(c, &proto)
				for {
					mt, payload, err := tr.Recv()
					if err != nil {
						return
					}
					switch mt {
					case msgHello:
						err = tr.Send(msgHelloAck, payload) // echoes the nonce
					case msgConfig:
						err = tr.Send(msgConfigAck, nil)
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), func() { ln.Close() }
}

// batchRun drives one controller over addrs with a fixed 4-port batch
// (ports 0 and 2 on the first link, 1 and 3 on the second) and checks
// every decision against a local scheduler.
type batchRun struct {
	t      *testing.T
	ctrl   *Controller
	conv   wavelength.Conversion
	counts [][]int
}

func newBatchRun(t *testing.T, cfg ControllerConfig) *batchRun {
	t.Helper()
	conv := wavelength.MustNew(wavelength.Circular, 6, 1, 1)
	cfg.N, cfg.Conv, cfg.Scheduler = 4, conv, "exact"
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return &batchRun{t: t, ctrl: ctrl, conv: conv, counts: [][]int{
		{2, 0, 1, 3, 0, 1},
		{0, 1, 0, 0, 2, 0},
		{1, 1, 1, 1, 1, 1},
		{4, 0, 0, 0, 0, 2},
	}}
}

// schedule runs one slot with requests on the given ports only. Every
// result buffer starts out holding a stale decision for another vector,
// so a port the controller never wrote fails the check.
func (b *batchRun) schedule(slot int64, ports ...int) {
	b.t.Helper()
	k := b.conv.K()
	reqs := make([]interconnect.BatchRequest, len(ports))
	out := make([]interconnect.BatchResult, len(ports))
	checks := make([]*coreResultCheck, len(ports))
	stale := []int{0, 0, 0, 0, 0, 3}
	for i, p := range ports {
		reqs[i] = interconnect.BatchRequest{Port: p, Count: b.counts[p], Occupied: make([]bool, k)}
		checks[i] = newCoreResultCheck(b.t, b.conv, b.counts[p])
		out[i] = interconnect.BatchResult{Port: p, Res: newCoreResultCheck(b.t, b.conv, stale).want}
	}
	if err := b.ctrl.ScheduleBatch(slot, reqs, out); err != nil {
		b.t.Fatalf("slot %d: %v", slot, err)
	}
	for i, p := range ports {
		checks[i].requireEqual(b.t, slot, p, out[i].Res)
	}
}

// TestControllerOwnsNoGoroutines: the controller runs every slot on the
// caller's goroutine. With the nodes up, building a controller and
// scheduling 200 slots adds only the nodes' own session goroutines, one
// per link.
func TestControllerOwnsNoGoroutines(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "tcp")
	before := runtime.NumGoroutine()
	b := newBatchRun(t, ControllerConfig{Addrs: []string{a1, a2}, Seed: 1})
	for slot := int64(0); slot < 200; slot++ {
		b.schedule(slot, 0, 1, 2, 3)
	}
	// NewController's dial goroutines may still be on their way out.
	want := before + 2
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("controller over 2 links left %d goroutines running, want at most %d (the node sessions)", got, want)
	}
}

// TestFallbackSlotsCountsOnlyFallbacks: a slot counts as a fallback slot
// only when one of its own ports fell back. After a dead node's ports fell
// back once, a slot with no requests for that node must not count.
func TestFallbackSlotsCountsOnlyFallbacks(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	a2, node2 := startNode(t, "tcp")
	b := newBatchRun(t, ControllerConfig{
		Addrs: []string{a1, a2}, Seed: 2, Retries: -1, RPCTimeout: 200 * time.Millisecond,
	})
	st := b.ctrl.ClusterStats()
	b.schedule(0, 0, 1, 2, 3)
	node2.Close()
	b.schedule(1, 0, 1, 2, 3)
	if fb, slots := st.LocalFallbackItems.Value(), st.FallbackSlots.Value(); fb != 2 || slots != 1 {
		t.Fatalf("after the node died: %d fallback items in %d slots, want 2 in 1", fb, slots)
	}
	b.schedule(2, 0, 2) // only the live node's ports
	if fb, slots := st.LocalFallbackItems.Value(), st.FallbackSlots.Value(); fb != 2 || slots != 1 {
		t.Fatalf("slot without the dead node's ports: %d fallback items in %d slots, want 2 in 1", fb, slots)
	}
}

// TestDegradedSlotBounded: the round's replies are read under one shared
// deadline, so two nodes that never answer cost one RPCTimeout together,
// not one each.
func TestDegradedSlotBounded(t *testing.T) {
	s1, _ := startSilentNode(t)
	s2, _ := startSilentNode(t)
	const timeout = 100 * time.Millisecond
	b := newBatchRun(t, ControllerConfig{Addrs: []string{s1, s2}, Seed: 3, Retries: -1, RPCTimeout: timeout})
	start := time.Now()
	b.schedule(0, 0, 1, 2, 3)
	if elapsed := time.Since(start); elapsed >= 2*timeout {
		t.Fatalf("two silent nodes held the slot %v, want under %v", elapsed, 2*timeout)
	}
	st := b.ctrl.ClusterStats()
	if fb, misses := st.LocalFallbackItems.Value(), st.DeadlineMisses.Value(); fb != 4 || misses != 2 {
		t.Fatalf("%d items fell back after %d deadline misses, want 4 after 2", fb, misses)
	}
}

// TestLateReadKeepsAnsweredReply: a node that answered while the
// controller waited out a silent node ahead of it in link order still has
// its reply taken, not counted as a deadline miss.
func TestLateReadKeepsAnsweredReply(t *testing.T) {
	silent, _ := startSilentNode(t)
	live, _ := startNode(t, "tcp")
	b := newBatchRun(t, ControllerConfig{
		Addrs: []string{silent, live}, Seed: 4, Retries: -1, RPCTimeout: 100 * time.Millisecond,
	})
	b.schedule(0, 0, 1, 2, 3)
	st := b.ctrl.ClusterStats()
	if remote, fb, misses := st.RemoteItems.Value(), st.LocalFallbackItems.Value(), st.DeadlineMisses.Value(); remote != 2 || fb != 2 || misses != 1 {
		t.Fatalf("remote %d, fallback %d, deadline misses %d; want 2, 2, 1", remote, fb, misses)
	}
}

// TestRetriesWithFailedRedialsFallBack: a link whose every retry fails to
// redial has no reply, so its ports must fall back — never keep the stale
// decisions left in the result buffers.
func TestRetriesWithFailedRedialsFallBack(t *testing.T) {
	silent, stop := startSilentNode(t)
	b := newBatchRun(t, ControllerConfig{
		Addrs: []string{silent}, Seed: 5, Retries: 2,
		RPCTimeout: 100 * time.Millisecond, BackoffBase: time.Millisecond,
	})
	stop() // the open session stays silent; every redial is refused
	b.schedule(0, 0, 1, 2, 3)
	st := b.ctrl.ClusterStats()
	if fb, retries, remote := st.LocalFallbackItems.Value(), st.Retries.Value(), st.RemoteItems.Value(); fb != 4 || retries != 2 || remote != 0 {
		t.Fatalf("fallback %d, retries %d, remote %d; want 4, 2, 0", fb, retries, remote)
	}
	if got := st.Reconnects.Value(); got != 0 {
		t.Fatalf("%d reconnects to a closed listener", got)
	}
}

// TestClusterTransportFaultsReproducible: one goroutine draws every
// injected transport fate, so TestClusterTransportFaults's configuration
// run twice injects the same faults and takes the same recovery path.
func TestClusterTransportFaultsReproducible(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "tcp")
	type outcome struct {
		drops, dups, delays                         int64
		retries, misses, fallbacks, reconnects, fbs int64
	}
	var runs [2]outcome
	for i := range runs {
		st, tf := transportFaultRun(t, a1, a2)
		c := st.Cluster
		runs[i] = outcome{
			tf.Drops.Value(), tf.Duplicates.Value(), tf.Delays.Value(),
			c.Retries.Value(), c.DeadlineMisses.Value(), c.LocalFallbackItems.Value(), c.Reconnects.Value(),
			c.FallbackSlots.Value(),
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("same seeds, different runs:\n %+v\n %+v", runs[0], runs[1])
	}
}

// transportFaultRun is TestClusterTransportFaults's faulted run: 120 slots
// over two nodes with frame drops, duplicates and delays injected.
func transportFaultRun(t *testing.T, a1, a2 string) (*interconnect.Stats, *fault.TransportFaults) {
	t.Helper()
	tf, err := fault.NewTransportFaults(fault.TransportConfig{
		Seed: 9, Drop: 0.08, Duplicate: 0.05, Delay: 0.03, DelayFor: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := clusterRun(t, transportFaultConfig, &ControllerConfig{
		Addrs: []string{a1, a2}, Seed: 5,
		RPCTimeout: 100 * time.Millisecond, BackoffBase: time.Millisecond,
		Faults: tf,
	}, 0.9, 120)
	return st, tf
}

var transportFaultConfig = interconnect.Config{
	N: 4, Conv: wavelength.MustNew(wavelength.Circular, 6, 1, 1), Scheduler: "exact", Seed: 5,
}
