package grant

import (
	"testing"
	"time"

	"wdmsched/internal/telemetry"
)

// TestStageHistogramsReconcile drives real traffic through a live
// service and pins the stage-clock contract: every round-settled verdict
// (granted + contention-rejected) is observed into every stage histogram
// exactly once, so the six per-stage counts all equal the settled
// verdict count from the double-entry ledger.
func TestStageHistogramsReconcile(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, addr, errc := startService(t, func(cfg *Config) { cfg.Telemetry = reg })
	c, err := Dial(addr, "stages")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const waves = 4
	reqs := make([]Req, 0, testN*waves)
	id := uint64(1)
	for in := 0; in < testN; in++ {
		for w := 0; w < waves; w++ {
			reqs = append(reqs, Req{ID: id, In: uint32(in), Wave: uint16(w),
				Dest: uint32((in + w) % testN), Dur: 1})
			id++
		}
	}
	var ta tally
	for round := 0; round < 8; round++ {
		for i := range reqs {
			reqs[i].ID += uint64(len(reqs))
		}
		if err := c.Submit(reqs); err != nil {
			t.Fatal(err)
		}
		recvUntil(t, c, &ta, (round+1)*len(reqs))
	}
	if ta.retried != 0 {
		t.Fatalf("expected no retries under a wide-open policy, got %d", ta.retried)
	}

	// A round's samples are published once its verdict frames are out, so
	// read the histograms only after the round loop has wound down.
	l := byeLedger(t, c)
	if got := uint64(ta.granted); l.Granted != got {
		t.Errorf("ledger granted %d != client tally %d", l.Granted, got)
	}
	s.Drain()
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	settled := int64(ta.granted + ta.rejected)
	for st, h := range s.stages {
		if h.Count() != settled {
			t.Errorf("stage %s count = %d, want %d (granted %d + rejected %d)",
				telemetry.GrantStageNames[st], h.Count(), settled, ta.granted, ta.rejected)
		}
	}

	// The registry view must agree with the internal histograms: six
	// wdm_grant_stage_seconds series, one per stage name, same counts.
	seen := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Name != "wdm_grant_stage_seconds" {
			continue
		}
		if len(m.Labels) != 1 || m.Labels[0].Key != "stage" {
			t.Fatalf("stage series labels = %v", m.Labels)
		}
		seen[m.Labels[0].Value] = m.Count
	}
	if len(seen) != telemetry.NumGrantStages {
		t.Fatalf("registry exposes %d stage series, want %d: %v", len(seen), telemetry.NumGrantStages, seen)
	}
	for _, name := range telemetry.GrantStageNames {
		if seen[name] != settled {
			t.Errorf("registry stage %s count = %d, want %d", name, seen[name], settled)
		}
	}

	// Exemplars: the ring retained slow requests with coherent waterfalls.
	exs := s.Recorder().Exemplars().Snapshot()
	if len(exs) == 0 {
		t.Fatal("exemplar ring is empty after settled traffic")
	}
	for _, e := range exs {
		if e.Tenant != "stages" {
			t.Errorf("exemplar tenant = %q, want %q", e.Tenant, "stages")
		}
		if e.Verdict != "granted" && e.Verdict != "rejected-contention" {
			t.Errorf("exemplar verdict = %q, want a settled verdict", e.Verdict)
		}
		if e.TotalNS <= 0 {
			t.Errorf("exemplar %d total = %d, want > 0", e.ID, e.TotalNS)
		}
		// Stage sums can undershoot the receipt→egress total (inter-stage
		// gaps are not attributed) but must never exceed it by more than
		// scheduling noise on the chained stamps.
		if sum := e.Stages.Total(); sum > e.TotalNS+int64(time.Millisecond) {
			t.Errorf("exemplar %d stage sum %d exceeds total %d", e.ID, sum, e.TotalNS)
		}
	}
}

// TestAdmissionStageSumsToLoopWallTime pins the per-frame admission
// clock: one stamp either side of the loop, its wall time split evenly
// over the frame's booked requests with the remainder on the last. Over a
// frame the admission durations sum to the loop's wall time exactly, the
// admission-done stamps step through the loop in frame order, and once
// the round has run the admission histogram has grown by exactly that
// wall time.
func TestAdmissionStageSumsToLoopWallTime(t *testing.T) {
	s, sess, payload := benchRoundService(t)
	recvNS := telemetry.NowNS()
	if !s.ingest(sess, payload, recvNS) {
		t.Fatal("ingest rejected the frame")
	}
	q := sess.tenant.q
	if len(q) != 64 {
		t.Fatalf("%d requests queued, want 64", len(q))
	}
	admStart := recvNS + q[0].ingNS
	wall := q[len(q)-1].admitNS - admStart
	if wall <= 0 {
		t.Fatalf("admission loop wall time = %d ns, want > 0", wall)
	}
	var sum int64
	prev := admStart
	for i, req := range q {
		if req.ingNS != q[0].ingNS {
			t.Errorf("request %d ingest = %d, want the frame's %d", i, req.ingNS, q[0].ingNS)
		}
		if req.admitNS != prev+req.admNS {
			t.Errorf("request %d booked at %d, want previous %d + its share %d", i, req.admitNS, prev, req.admNS)
		}
		if i < len(q)-1 && req.admNS != wall/64 {
			t.Errorf("request %d share = %d, want %d (even split)", i, req.admNS, wall/64)
		}
		prev = req.admitNS
		sum += req.admNS
	}
	if sum != wall {
		t.Errorf("admission durations sum to %d ns, loop wall time %d ns", sum, wall)
	}

	s.mu.Lock()
	s.buildBatchLocked()
	s.mu.Unlock()
	if err := s.runRound(); err != nil {
		t.Fatal(err)
	}
	adm := s.stages[telemetry.StageAdmission]
	if adm.Count() != 64 || adm.Sum() != time.Duration(wall) {
		t.Errorf("admission histogram = %d samples, %d ns; want 64 samples, %d ns", adm.Count(), adm.Sum(), wall)
	}

	// A frame whose requests were not all queued (positions 1 and 3 of 5
	// got immediate verdicts) still splits over all five booked: the
	// queued ones carry their own shares, the last the remainder.
	reqs := []request{{admitNS: 0}, {admitNS: 2}, {admitNS: 4}}
	stampAdmission(reqs, 7, 1000, 103, 5)
	want := []request{
		{ingNS: 7, admNS: 20, admitNS: 1020},
		{ingNS: 7, admNS: 20, admitNS: 1060},
		{ingNS: 7, admNS: 23, admitNS: 1103},
	}
	for i := range want {
		if reqs[i] != want[i] {
			t.Errorf("stampAdmission[%d] = %+v, want %+v", i, reqs[i], want[i])
		}
	}
}

// TestDrainingAccessor pins the /readyz signal source: false while
// serving, true once Drain begins.
func TestDrainingAccessor(t *testing.T) {
	s, _, errc := startService(t, nil)
	if s.Draining() {
		t.Error("Draining() true before drain")
	}
	s.Drain()
	if !s.Draining() {
		t.Error("Draining() false after Drain()")
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
