package grant

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

const (
	testN = 4
	testK = 8
)

func testSwitchConfig(t *testing.T) interconnect.Config {
	t.Helper()
	conv, err := wavelength.NewSymmetric(wavelength.Circular, testK, 3)
	if err != nil {
		t.Fatal(err)
	}
	return interconnect.Config{N: testN, Conv: conv, Scheduler: "exact", Seed: 7}
}

// startService builds and serves a service on loopback, returning it,
// its address and the Serve error channel. mut adjusts the config.
func startService(t *testing.T, mut func(*Config)) (*Service, string, chan error) {
	t.Helper()
	cfg := Config{
		Switch:  testSwitchConfig(t),
		Default: Policy{Class: 0, Rate: 1e6, Burst: 4096, Queue: 4096},
		Resync:  32,
		Stderr:  testWriter{t},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() { errc <- s.Serve(ln); close(done) }()
	t.Cleanup(func() {
		s.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	return s, ln.Addr().String(), errc
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// collect reads verdicts until want notices arrived (or a drain/ledger
// event shows up, which it reports through the returned struct).
type tally struct {
	granted, rejected, retried int
	drain                      bool
	ledger                     *Ledger
}

func (ta *tally) add(notices []Notice) {
	for _, nt := range notices {
		switch {
		case nt.Verdict.Granted():
			ta.granted++
		case nt.Verdict.Rejected():
			ta.rejected++
		case nt.Verdict.Retry():
			ta.retried++
		}
	}
}

func (ta *tally) terminal() int { return ta.granted + ta.rejected + ta.retried }

func recvUntil(t *testing.T, c *Client, ta *tally, want int) {
	t.Helper()
	c.SetRecvDeadline(time.Now().Add(20 * time.Second))
	defer c.SetRecvDeadline(time.Time{})
	for ta.terminal() < want {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv with %d/%d verdicts: %v", ta.terminal(), want, err)
		}
		switch {
		case ev.Notices != nil:
			ta.add(ev.Notices)
		case ev.Drain:
			ta.drain = true
		case ev.Ledger != nil:
			t.Fatalf("ledger before all verdicts (%d/%d)", ta.terminal(), want)
		}
	}
}

// byeLedger completes the session and returns the server-side ledger.
func byeLedger(t *testing.T, c *Client) Ledger {
	t.Helper()
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	c.SetRecvDeadline(time.Now().Add(10 * time.Second))
	for {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("waiting for ledger: %v", err)
		}
		if ev.Ledger != nil {
			return *ev.Ledger
		}
	}
}

func TestServiceEndToEndLedger(t *testing.T) {
	s, addr, errc := startService(t, nil)

	const perClient = 600
	run := func(tenant string, seedShift int) (Ledger, tally) {
		c, err := Dial(addr, tenant)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.N != testN || c.K != testK {
			t.Fatalf("handshake shape %d×%d, want %d×%d", c.N, c.K, testN, testK)
		}
		var ta tally
		reqs := make([]Req, 0, 32)
		id := uint64(0)
		for id < perClient {
			reqs = reqs[:0]
			for b := 0; b < 32 && id < perClient; b++ {
				i := int(id) + seedShift
				reqs = append(reqs, Req{
					ID:   id,
					In:   uint32(i % testN),
					Wave: uint16((i / testN) % testK),
					Dest: uint32((i * 7) % testN),
					Dur:  uint16(1 + i%3),
				})
				id++
			}
			if err := c.Submit(reqs); err != nil {
				t.Fatal(err)
			}
			// Read whatever is ready so the pipe never backs up.
			recvUntil(t, c, &ta, ta.terminal())
		}
		recvUntil(t, c, &ta, perClient)
		return byeLedger(t, c), ta
	}

	ledgerA, tallyA := run("tenant-a", 0)
	ledgerB, tallyB := run("tenant-b", 3)

	for name, pair := range map[string]struct {
		l  Ledger
		ta tally
	}{"tenant-a": {ledgerA, tallyA}, "tenant-b": {ledgerB, tallyB}} {
		if !pair.l.Balanced() {
			t.Errorf("%s: server ledger does not balance: %+v", name, pair.l)
		}
		if pair.l.Submitted != perClient {
			t.Errorf("%s: server saw %d submissions, client sent %d", name, pair.l.Submitted, perClient)
		}
		if got, want := pair.l.Granted, uint64(pair.ta.granted); got != want {
			t.Errorf("%s: server granted %d, client counted %d", name, got, want)
		}
		if got, want := pair.l.Rejected, uint64(pair.ta.rejected); got != want {
			t.Errorf("%s: server rejected %d, client counted %d", name, got, want)
		}
		if got, want := pair.l.Retried, uint64(pair.ta.retried); got != want {
			t.Errorf("%s: server retried %d, client counted %d", name, got, want)
		}
	}

	// Graceful drain: Serve returns nil and the service-wide ledger
	// reconciled against the engine on the way out.
	s.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Drain")
	}
	if inc := s.Incident(); inc != nil {
		t.Fatalf("incident after clean run: %+v", inc)
	}
	total := s.Ledger()
	if !total.Balanced() {
		t.Fatalf("service ledger does not balance: %+v", total)
	}
	if total.Submitted != 2*perClient {
		t.Fatalf("service saw %d submissions, want %d", total.Submitted, 2*perClient)
	}
	if total.Granted != ledgerA.Granted+ledgerB.Granted {
		t.Fatalf("service granted %d != sessions %d+%d", total.Granted, ledgerA.Granted, ledgerB.Granted)
	}
}

func TestZeroRateTenantAlwaysRejected(t *testing.T) {
	_, addr, _ := startService(t, func(cfg *Config) {
		cfg.Tenants = map[string]Policy{
			"blocked": {Class: 0, Rate: 0, Burst: 0, Queue: 16},
		}
	})
	c, err := Dial(addr, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Policy.Rate != 0 {
		t.Fatalf("handshake policy rate %g, want 0", c.Policy.Rate)
	}
	reqs := make([]Req, 20)
	for i := range reqs {
		reqs[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK), Dest: 0, Dur: 1}
	}
	if err := c.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	var ta tally
	recvUntil(t, c, &ta, len(reqs))
	if ta.rejected != len(reqs) || ta.granted != 0 || ta.retried != 0 {
		t.Fatalf("tally %+v, want all %d rejected", ta, len(reqs))
	}
	l := byeLedger(t, c)
	if !l.Balanced() || l.Rejected != uint64(len(reqs)) || l.Admitted != 0 {
		t.Fatalf("ledger %+v, want %d admission rejects and balance", l, len(reqs))
	}
}

func TestBurstExactlyAtBucketCapacityOverWire(t *testing.T) {
	const burst = 8
	_, addr, _ := startService(t, func(cfg *Config) {
		cfg.Tenants = map[string]Policy{
			// Near-zero refill: the whole test fits inside one token.
			"bursty": {Class: 0, Rate: 1e-3, Burst: burst, Queue: 64},
		}
	})
	c, err := Dial(addr, "bursty")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs := make([]Req, 2*burst)
	for i := range reqs {
		reqs[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK), Dest: uint32(i % testN), Dur: 1}
	}
	if err := c.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	var ta tally
	retryWaits := 0
	c.SetRecvDeadline(time.Now().Add(20 * time.Second))
	for ta.terminal() < len(reqs) {
		ev, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for _, nt := range ev.Notices {
			if nt.Verdict == VerdictRetryBucket && nt.WaitMS > 0 {
				retryWaits++
			}
		}
		ta.add(ev.Notices)
	}
	// Exactly the burst is admitted (granted or contention-rejected);
	// the boundary request burst+1 and everything after gets RETRY.
	if got := ta.granted + ta.rejected; got != burst {
		t.Fatalf("%d requests passed admission, want exactly burst %d", got, burst)
	}
	if ta.retried != burst {
		t.Fatalf("%d retried, want %d", ta.retried, burst)
	}
	if retryWaits != burst {
		t.Fatalf("%d retry verdicts carried a RETRY-AFTER hint, want %d", retryWaits, burst)
	}
	l := byeLedger(t, c)
	if !l.Balanced() || l.Admitted != burst {
		t.Fatalf("ledger %+v, want admitted == %d", l, burst)
	}
}

func TestQueueFullRetryAfterRoundTrip(t *testing.T) {
	const queue = 4
	_, addr, _ := startService(t, func(cfg *Config) {
		// Paced rounds: the queue cannot drain between the frame's
		// requests, so the bound is what pushes back.
		cfg.SlotEvery = 50 * time.Millisecond
		cfg.Tenants = map[string]Policy{
			"narrow": {Class: 0, Rate: 1e6, Burst: 1024, Queue: queue},
		}
	})
	c, err := Dial(addr, "narrow")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total = 40
	reqs := make([]Req, total)
	for i := range reqs {
		reqs[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK), Dest: uint32(i % testN), Dur: 1}
	}
	// One frame is admitted atomically against the round loop: exactly
	// `queue` requests fit, the rest must bounce with RETRY-AFTER.
	if err := c.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	var ta tally
	hints := 0
	c.SetRecvDeadline(time.Now().Add(20 * time.Second))
	for ta.terminal() < total {
		ev, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for _, nt := range ev.Notices {
			if nt.Verdict == VerdictRetryQueue {
				if nt.WaitMS == 0 {
					t.Fatal("queue-full retry without a RETRY-AFTER hint")
				}
				hints++
			}
		}
		ta.add(ev.Notices)
	}
	if ta.retried != total-queue || hints != total-queue {
		t.Fatalf("retried %d (hints %d), want %d queue-full retries", ta.retried, hints, total-queue)
	}
	if got := ta.granted + ta.rejected; got != queue {
		t.Fatalf("%d settled, want the %d that fit the queue", got, queue)
	}
	l := byeLedger(t, c)
	if !l.Balanced() || l.Admitted != queue || l.Retried != total-queue {
		t.Fatalf("ledger %+v", l)
	}
}

func TestDrainRacesMidFlightBatch(t *testing.T) {
	s, addr, errc := startService(t, nil)
	c, err := Dial(addr, "racer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A writer goroutine keeps submitting long-duration requests while
	// the main goroutine drains the server mid-flight. Submissions after
	// the drain begins must come back as retry-drain; everything
	// admitted before it must still settle, then the ledger arrives.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := uint64(0)
		reqs := make([]Req, 16)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range reqs {
				j := int(id) + i
				reqs[i] = Req{ID: id + uint64(i), In: uint32(j % testN), Wave: uint16(j % testK),
					Dest: uint32(j % testN), Dur: uint16(1 + j%8)}
			}
			if err := c.Submit(reqs); err != nil {
				return // session closed by drain completion
			}
			id += uint64(len(reqs))
		}
	}()

	// A second session queues eight long connections on one input
	// channel — one can be dispatched every 500 rounds, milliseconds
	// apart — and hangs up without reading: all but the first settle
	// after their session died, through flushRound's dead-session path.
	ghost, err := Dial(addr, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	held := make([]Req, 8)
	for i := range held {
		held[i] = Req{ID: uint64(i), In: testN - 1, Wave: testK - 1, Dest: 0, Dur: 500}
	}
	if err := ghost.Submit(held); err != nil {
		t.Fatal(err)
	}
	ghost.Close()

	// Let some batches through, then drain mid-flight.
	time.Sleep(20 * time.Millisecond)
	s.Drain()

	var ta tally
	var ledger *Ledger
	c.SetRecvDeadline(time.Now().Add(20 * time.Second))
	for ledger == nil {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv: %v (tally %+v)", err, ta)
		}
		switch {
		case ev.Notices != nil:
			ta.add(ev.Notices)
		case ev.Drain:
			ta.drain = true
		case ev.Ledger != nil:
			l := *ev.Ledger
			ledger = &l
		}
	}
	close(stop)
	wg.Wait()

	if !ta.drain {
		t.Error("no drain announcement seen")
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if !ledger.Balanced() {
		t.Fatalf("session ledger does not balance: %+v", ledger)
	}
	if ledger.Admitted != ledger.Granted+ledger.Rejected {
		t.Fatalf("admitted %d != granted %d + rejected %d — a mid-flight request was lost",
			ledger.Admitted, ledger.Granted, ledger.Rejected)
	}
	if got := uint64(ta.terminal()); got != ledger.Submitted {
		t.Fatalf("client saw %d verdicts, server ledger says %d submitted", got, ledger.Submitted)
	}
	if inc := s.Incident(); inc != nil {
		t.Fatalf("incident during drain race: %+v", inc)
	}
	total := s.Ledger()
	if !total.Balanced() {
		t.Fatalf("service ledger does not balance: %+v", total)
	}
	// Every request that reached a round — the ghost's included — is in
	// every stage histogram and in the verdict counters exactly once.
	settled := int64(total.Admitted)
	if got := s.verdicts[VerdictGranted].Value() + s.verdicts[VerdictRejected].Value(); got != settled {
		t.Errorf("verdict counters settled %d requests, ledger admitted %d", got, settled)
	}
	if got := s.latency.Count(); got != int64(total.Submitted) {
		t.Errorf("latency histogram has %d observations, ledger submitted %d", got, total.Submitted)
	}
	for st, h := range s.stages {
		if h.Count() != settled {
			t.Errorf("stage %s count = %d, want %d settled", telemetry.GrantStageNames[st], h.Count(), settled)
		}
	}
}

// TestNonReadingClientCannotWedgeService pins the egress-buffer
// contract: a client that submits but never reads verdicts must be
// disconnected when its bounded egress buffer fills — never allowed to
// stall the round loop, other sessions or Drain behind a blocked socket
// write.
func TestNonReadingClientCannotWedgeService(t *testing.T) {
	s, addr, errc := startService(t, func(cfg *Config) {
		cfg.EgressBuffer = 1 << 12 // trip the bound quickly
	})
	bad, err := Dial(addr, "deaf")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	// Flood submissions without ever calling Recv. Once the socket
	// buffers jam, verdicts pile into the session's egress buffer; the
	// bound trips and the server closes the connection, which surfaces
	// here as a Submit error.
	reqs := make([]Req, 16)
	var submitErr error
	deadline := time.Now().Add(20 * time.Second)
	for id := uint64(0); submitErr == nil; id += uint64(len(reqs)) {
		if time.Now().After(deadline) {
			t.Fatal("server never disconnected a non-reading client")
		}
		for i := range reqs {
			j := int(id) + i
			reqs[i] = Req{ID: id + uint64(i), In: uint32(j % testN), Wave: uint16(j % testK),
				Dest: uint32(j % testN), Dur: 1}
		}
		submitErr = bad.Submit(reqs)
	}

	// The rest of the service must be unaffected: a well-behaved client
	// on another tenant still gets verdicts and a balanced ledger.
	good, err := Dial(addr, "polite")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	const polite = 64
	gr := make([]Req, polite)
	for i := range gr {
		gr[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK),
			Dest: uint32(i % testN), Dur: 1}
	}
	if err := good.Submit(gr); err != nil {
		t.Fatal(err)
	}
	var ta tally
	recvUntil(t, good, &ta, polite)
	l := byeLedger(t, good)
	if !l.Balanced() || l.Submitted != polite {
		t.Fatalf("well-behaved session ledger %+v, want %d submissions and balance", l, polite)
	}

	// And a drain must still complete promptly.
	s.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if inc := s.Incident(); inc != nil {
		t.Fatalf("incident after overflow disconnect: %+v", inc)
	}
	if total := s.Ledger(); !total.Balanced() {
		t.Fatalf("service ledger does not balance: %+v", total)
	}
}

func TestInvariantViolationWritesForensics(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "incident.tgz")
	report := filepath.Join(dir, "incident.json")
	s, addr, errc := startService(t, func(cfg *Config) {
		cfg.Resync = 1
		cfg.BundlePath = bundle
		cfg.Report = report
		cfg.Meta.Engine = "sequential"
	})
	c, err := Dial(addr, "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Corrupt the ledger out from under the service (the chaosbug): the
	// next reconcile must catch it, dump the bundle and stop Serve.
	s.mu.Lock()
	s.granted += 3
	s.mu.Unlock()

	reqs := make([]Req, 16)
	for i := range reqs {
		reqs[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK), Dest: 0, Dur: 1}
	}
	if err := c.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not stop on the injected ledger corruption")
	}
	if serveErr == nil || !strings.Contains(serveErr.Error(), "invariant violation") {
		t.Fatalf("Serve error = %v, want invariant violation", serveErr)
	}
	inc := s.Incident()
	if inc == nil || inc.Invariant != "ledger" {
		t.Fatalf("incident = %+v, want ledger invariant", inc)
	}
	if inc.Config.Engine != "sequential" || inc.Config.N != testN {
		t.Fatalf("incident metadata not filled: %+v", inc.Config)
	}
	if _, err := os.Stat(report); err != nil {
		t.Fatalf("incident report not written: %v", err)
	}
	b, err := telemetry.ReadBundleFile(bundle)
	if err != nil {
		t.Fatalf("incident bundle unreadable: %v", err)
	}
	for _, name := range []string{"config.json", "incident.json", "ledger.json", "decisions.jsonl", "snapshots.jsonl"} {
		if !b.Has(name) {
			t.Errorf("bundle missing %s (has %v)", name, b.Names())
		}
	}
}

func TestServiceRejectsSimulationFeatures(t *testing.T) {
	base := func(t *testing.T) Config {
		return Config{
			Switch:  testSwitchConfig(t),
			Default: Policy{Rate: 1, Burst: 1, Queue: 1},
		}
	}
	cfg := base(t)
	cfg.Switch.Disturb = true
	if _, err := NewService(cfg); err == nil {
		t.Error("disturb mode accepted")
	}
	cfg = base(t)
	cfg.Default.Queue = 0
	if _, err := NewService(cfg); err == nil {
		t.Error("unbounded/zero queue accepted")
	}
	cfg = base(t)
	cfg.Tenants = map[string]Policy{"bad": {Rate: 1, Burst: 0, Queue: 4}}
	if _, err := NewService(cfg); err == nil {
		t.Error("burst 0 with positive rate accepted")
	}
}

func TestMalformedSubmitKillsSession(t *testing.T) {
	_, addr, _ := startService(t, nil)
	c, err := Dial(addr, "proto")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Out-of-shape input fiber: the server must answer with an error
	// frame and close the session rather than schedule garbage.
	if err := c.Submit([]Req{{ID: 1, In: 99, Wave: 0, Dest: 0, Dur: 1}}); err != nil {
		t.Fatal(err)
	}
	c.SetRecvDeadline(time.Now().Add(10 * time.Second))
	_, err = c.Recv()
	if err == nil || !strings.Contains(err.Error(), "malformed submit") {
		t.Fatalf("err = %v, want server error about malformed submit", err)
	}
}

// TestOutOfRangeFiberKillsSession: an input or destination fiber of 2^31
// or more must be refused as a malformed submit like any other
// out-of-shape fiber — not wrap negative past the range check and take
// the server down. The service records no incident and keeps granting.
func TestOutOfRangeFiberKillsSession(t *testing.T) {
	s, addr, _ := startService(t, nil)
	for _, req := range []Req{
		{ID: 1, In: 0xFFFFFFFF, Wave: 0, Dest: 0, Dur: 1},
		{ID: 2, In: 0, Wave: 0, Dest: 0x80000000, Dur: 1},
	} {
		c, err := Dial(addr, "proto")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit([]Req{req}); err != nil {
			t.Fatal(err)
		}
		c.SetRecvDeadline(time.Now().Add(10 * time.Second))
		_, err = c.Recv()
		if err == nil || !strings.Contains(err.Error(), "malformed submit") {
			t.Fatalf("in %#x dest %#x: err = %v, want server error about malformed submit", req.In, req.Dest, err)
		}
		c.Close()
	}
	c, err := Dial(addr, "proto")
	if err != nil {
		t.Fatalf("service gone after out-of-range submits: %v", err)
	}
	defer c.Close()
	if err := c.Submit([]Req{{ID: 3, In: 0, Wave: 0, Dest: 0, Dur: 1}}); err != nil {
		t.Fatal(err)
	}
	var ta tally
	recvUntil(t, c, &ta, 1)
	if ta.granted != 1 {
		t.Fatalf("lone request not granted: %+v", ta)
	}
	if inc := s.Incident(); inc != nil {
		t.Fatalf("service recorded an incident: %+v", inc)
	}
}

// submitPayload encodes reqs as a submit frame payload.
func submitPayload(reqs ...Req) []byte {
	b := wire.PutU32(nil, uint32(len(reqs)))
	for _, q := range reqs {
		b = wire.PutU64(b, q.ID)
		b = wire.PutU32(b, q.In)
		b = wire.PutU16(b, q.Wave)
		b = wire.PutU32(b, q.Dest)
		b = wire.PutU16(b, q.Dur)
	}
	return b
}

var (
	fuzzMu   sync.Mutex
	fuzzSvc  *Service
	fuzzSess *session
)

// FuzzGrantIngest throws arbitrary submit payloads at the wire-facing
// ingest path of one pooled service and session, then runs the round
// they feed. Whatever the payload, nothing may panic, every booked
// request must get exactly one immediate verdict or one queue entry, and
// the round must neither fail nor record an incident.
func FuzzGrantIngest(f *testing.F) {
	f.Add([]byte{})
	f.Add(submitPayload(Req{ID: 1, In: 1, Wave: 2, Dest: 3, Dur: 1}, Req{ID: 2, In: 3, Wave: 7, Dest: 0, Dur: 4}))
	f.Add(submitPayload(Req{ID: 1, In: 0xFFFFFFFF, Wave: 0, Dest: 0, Dur: 1}))
	f.Add(submitPayload(Req{ID: 1, In: 0, Wave: 0, Dest: 0x80000000, Dur: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		if fuzzSvc == nil {
			s, err := NewService(Config{
				Switch:  testSwitchConfig(t),
				Default: Policy{Class: 0, Rate: 1e12, Burst: 1e6, Queue: 256},
			})
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			fuzzSess = &session{tenant: s.tenantLocked("fuzz"), egressMax: defaultEgressBuffer}
			s.mu.Unlock()
			fuzzSess.wcond = sync.NewCond(&fuzzSess.wmu)
			fuzzSvc = s
		}
		s, sess := fuzzSvc, fuzzSess
		sess.iv = sess.iv[:0] // ingest leaves it untouched on a malformed count
		booked0, queued0 := sess.ledger.Submitted, len(sess.tenant.q)
		s.ingest(sess, data, telemetry.NowNS())
		booked := int(sess.ledger.Submitted - booked0)
		if enq := len(sess.tenant.q) - queued0; booked != enq+len(sess.iv) {
			t.Fatalf("%d requests booked, %d queued + %d immediate verdicts", booked, enq, len(sess.iv))
		}
		s.mu.Lock()
		s.buildBatchLocked()
		s.mu.Unlock()
		if err := s.runRound(); err != nil {
			t.Fatal(err)
		}
		if inc := s.Incident(); inc != nil {
			t.Fatalf("incident: %+v", inc)
		}
		sess.out = sess.out[:0]
	})
}

func TestQoSClassOrdering(t *testing.T) {
	// Two tenants contend for the same output fiber every round; the
	// gold tenant (class 0) must win a disproportionate share. Paced
	// rounds let both queues fill before each round fires.
	s, addr, _ := startService(t, func(cfg *Config) {
		cfg.SlotEvery = 2 * time.Millisecond
		cfg.Tenants = map[string]Policy{
			"gold":   {Class: 0, Rate: 1e6, Burst: 4096, Queue: 512},
			"bronze": {Class: 1, Rate: 1e6, Burst: 4096, Queue: 512},
		}
	})
	_ = s
	run := func(tenant string, in uint32) (*Client, error) {
		return Dial(addr, tenant)
	}
	gold, err := run("gold", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := run("bronze", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()

	// Same wavelength, same destination: exactly one of the two can win
	// any given slot. Gold must never lose to bronze within a round.
	const rounds = 64
	var wg sync.WaitGroup
	tallies := make([]tally, 2)
	clients := []*Client{gold, bronze}
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *Client) {
			defer wg.Done()
			reqs := make([]Req, 1)
			for i := 0; i < rounds; i++ {
				reqs[0] = Req{ID: uint64(i), In: uint32(ci), Wave: 0, Dest: 0, Dur: 1}
				if err := c.Submit(reqs); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
			c.SetRecvDeadline(time.Now().Add(20 * time.Second))
			for tallies[ci].terminal() < rounds {
				ev, err := c.Recv()
				if err != nil {
					return
				}
				tallies[ci].add(ev.Notices)
			}
		}(ci, c)
	}
	wg.Wait()
	// Both tenants submit on distinct input channels toward one output
	// fiber with k=8 channels: contention is light, but everything must
	// terminate — the QoS property asserted hard here is starvation
	// freedom plus termination; strict intra-round ordering is asserted
	// by the single-threaded round-loop scan order (buildBatchLocked).
	for ci, name := range []string{"gold", "bronze"} {
		if tallies[ci].terminal() != rounds {
			t.Errorf("%s: %d/%d verdicts", name, tallies[ci].terminal(), rounds)
		}
	}
}

func TestLatencyHistogramPopulated(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, addr, errc := startService(t, func(cfg *Config) { cfg.Telemetry = reg })
	c, err := Dial(addr, "lat")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs := make([]Req, 8)
	for i := range reqs {
		reqs[i] = Req{ID: uint64(i), In: uint32(i % testN), Wave: uint16(i % testK), Dest: 0, Dur: 1}
	}
	if err := c.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	var ta tally
	recvUntil(t, c, &ta, len(reqs))
	_ = byeLedger(t, c)
	// A round's samples are published after its verdict frames are
	// written, so wait for the round loop to wind down before reading.
	s.Drain()
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := s.latency.Count(); n != int64(len(reqs)) {
		t.Fatalf("latency histogram has %d observations, want %d", n, len(reqs))
	}
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "wdm_grant_latency_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("wdm_grant_latency_seconds not registered")
	}
}

func TestRequestDumpWritesBundleMidRun(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "serve.tgz")
	s, addr, _ := startService(t, func(cfg *Config) { cfg.BundlePath = bundle })
	c, err := Dial(addr, "dumper")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit([]Req{{ID: 1, In: 0, Wave: 0, Dest: 0, Dur: 1}}); err != nil {
		t.Fatal(err)
	}
	var ta tally
	recvUntil(t, c, &ta, 1)
	s.RequestDump()
	want := filepath.Join(dir, fmt.Sprintf("serve-sigquit-%d", 0))
	_ = want
	deadline := time.Now().Add(10 * time.Second)
	var found string
	for time.Now().Before(deadline) {
		matches, _ := filepath.Glob(filepath.Join(dir, "serve-sigquit-*.tgz"))
		if len(matches) > 0 {
			found = matches[0]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if found == "" {
		t.Fatal("requested bundle never appeared")
	}
	b, err := telemetry.ReadBundleFile(found)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Has("ledger.json") {
		t.Fatalf("requested bundle missing ledger.json: %v", b.Names())
	}
	_ = byeLedger(t, c)
}
