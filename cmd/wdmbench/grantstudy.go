package main

import (
	"fmt"
	"net"
	"time"

	"wdmsched/internal/grant"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/sim"
	"wdmsched/internal/wavelength"
)

// runGrantStudy measures the grant-service serving path end to end over
// a loopback socket: an in-process Service on the sequential engine,
// driven closed-loop in fixed-size batches through the public client.
// The duration cells (batch round trip p50/p99, per-request mean) ride
// the same bench-diff gate as the engine tables, so a regression on the
// ingest/verdict hot path shows up in the perf trajectory next to the
// slot-latency ones.
func runGrantStudy(cfg sim.RunConfig) (*metrics.Table, error) {
	const n, k, batch = 8, 16, 64
	reqs := 20000
	if cfg.Quick {
		reqs = 2000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	conv, err := wavelength.NewSymmetric(wavelength.Circular, k, 3)
	if err != nil {
		return nil, err
	}
	svc, err := grant.NewService(grant.Config{
		Switch:  interconnect.Config{N: n, Conv: conv, Scheduler: "exact", Seed: seed},
		Default: grant.Policy{Rate: 1e9, Burst: 1e6, Queue: 1 << 16},
		Resync:  1024,
		Tool:    "wdmbench",
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()
	defer svc.Close()

	c, err := grant.Dial(ln.Addr().String(), "bench")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetRecvDeadline(time.Now().Add(2 * time.Minute))

	rtt := metrics.NewDurationHistogram()
	buf := make([]grant.Req, 0, batch)
	rng := seed
	next := func(m int) int { // xorshift; Math.rand-free and seed-stable
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(m))
	}
	var granted, rejected uint64
	start := time.Now()
	for id := 0; id < reqs; {
		buf = buf[:0]
		for len(buf) < batch && id < reqs {
			buf = append(buf, grant.Req{
				ID:   uint64(id),
				In:   uint32(next(n)),
				Wave: uint16(next(k)),
				Dest: uint32(next(n)),
				Dur:  uint16(1 + next(4)),
			})
			id++
		}
		sent := time.Now()
		if err := c.Submit(buf); err != nil {
			return nil, err
		}
		for seen := 0; seen < len(buf); {
			ev, err := c.Recv()
			if err != nil {
				return nil, err
			}
			for _, nt := range ev.Notices {
				if nt.Verdict.Granted() {
					granted++
				} else {
					rejected++
				}
				seen++
			}
		}
		rtt.Observe(time.Since(sent))
	}
	wall := time.Since(start)

	if err := c.Bye(); err != nil {
		return nil, err
	}
	var ledger *grant.Ledger
	for ledger == nil {
		ev, err := c.Recv()
		if err != nil {
			return nil, err
		}
		ledger = ev.Ledger
	}
	if !ledger.Balanced() || ledger.Submitted != uint64(reqs) {
		return nil, fmt.Errorf("grant study ledger inconsistent: %+v", *ledger)
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("Grant service serving path — N=%d, k=%d, circular d=3, %d-request batches over loopback", n, k, batch),
		Header: []string{"mode", "requests", "batch rtt p50", "batch rtt p99", "per-request mean",
			"goodput req/s", "granted", "rejected"},
	}
	t.AddRowf("loopback closed-loop", reqs,
		rtt.Quantile(0.50), rtt.Quantile(0.99),
		wall/time.Duration(reqs),
		fmt.Sprintf("%.0f", float64(reqs)/wall.Seconds()),
		granted, rejected)
	t.AddNote("Closed loop: each batch waits for its verdicts, so the round trip includes ingest, admission, scheduling and verdict write-back.")
	t.AddNote("The session ledger reconciled against the client tally before the table was emitted.")
	return t, nil
}
