package main

import (
	"fmt"
	"math"
	"time"

	"wdmsched/bench/stats"
	"wdmsched/internal/grant"
	"wdmsched/internal/traffic"
)

// openStep is one rate of the open-loop ladder: requests fall due on a
// Poisson schedule fixed in advance, and each is timed from its due time,
// so a stalled generator or a backed-up service shows as latency instead of
// as a lower offered rate.
type openStep struct {
	due    []int64 // ns since the step started
	sent   []int64
	done   []int64
	retry  []bool
	frames int
}

// openLadder drives a second service, with the default 4096-request queue,
// through the rates of openRates on one connection: a submitter goroutine
// and a reader goroutine. It is the overload workload: RETRY is a legitimate
// verdict here, a lost request is not.
func (t *tracedRun) openLadder(values map[string]float64, perStep time.Duration) error {
	seed := t.rig.seed
	g, err := startGrant(t.rig.w, t.rig.conv, seed, 4096)
	if err != nil {
		return err
	}
	finished := false
	defer func() {
		if !finished {
			g.finish(false)
		}
	}()
	n0, s0 := stageSums(g.reg)
	depthMax := 0.0
	rng := traffic.NewRNG(seed ^ 0x6f70656e) // "open"
	reqs := t.rig.win.reqs
	cursor := 0
	for _, r := range openRates {
		n := int(r.Rate * perStep.Seconds())
		if n < 1 {
			n = 1
		}
		st := &openStep{due: make([]int64, n), sent: make([]int64, n), done: make([]int64, n), retry: make([]bool, n)}
		at := 0.0
		for i := range st.due {
			at += rng.Exp(r.Rate)
			st.due[i] = int64(at * 1e9)
		}
		base := g.nextID
		g.nextID += uint64(n)
		g.ids.submitted(n)
		t.ck.ops(int64(n))

		start := time.Now()
		readErr := make(chan error, 1) // one send, from the reader
		go func() {
			g.client.SetRecvDeadline(time.Now().Add(perStep + 30*time.Second))
			defer g.client.SetRecvDeadline(time.Time{})
			for got, events := 0, 0; got < n; events++ {
				ev, err := g.client.Recv()
				if err != nil {
					readErr <- fmt.Errorf("after %d of %d verdicts: %w", got, n, err)
					return
				}
				now := int64(time.Since(start))
				for _, nt := range ev.Notices {
					g.ids.verdict(nt.ID)
					g.tally.note(nt.Verdict)
					if i := nt.ID - base; i < uint64(n) {
						st.done[i] = now
						st.retry[i] = nt.Verdict.Retry()
					}
				}
				got += len(ev.Notices)
				if events%256 == 0 {
					depthMax = math.Max(depthMax, registryValue(g.reg, "wdm_grant_queue_depth"))
				}
			}
			readErr <- nil
		}()

		// Submitter: everything due goes out in one frame of at most 256.
		frame := make([]grant.Req, 0, 256)
		var subErr error
		for i := 0; i < n && subErr == nil; {
			now := int64(time.Since(start))
			if st.due[i] > now {
				time.Sleep(time.Duration(st.due[i] - now))
				now = int64(time.Since(start))
			}
			frame = frame[:0]
			for ; i < n && st.due[i] <= now && len(frame) < cap(frame); i++ {
				q := reqs[cursor]
				cursor = (cursor + 1) % len(reqs)
				q.ID = base + uint64(i)
				frame = append(frame, q)
				st.sent[i] = now
			}
			st.frames++
			subErr = g.client.Submit(frame)
		}
		if subErr != nil {
			g.client.Close() // unblocks the reader
			<-readErr
			t.ck.fail(int64(n), "grant-open %s: submit: %v", r.Tag, subErr)
			return subErr
		}
		if err := <-readErr; err != nil {
			t.ck.fail(int64(n), "grant-open %s: %v", r.Tag, err)
			return err
		}

		lat := make([]int64, n)
		late := make([]int64, n)
		retries := 0
		for i := range lat {
			lat[i] = st.done[i] - st.due[i]
			late[i] = st.sent[i] - st.due[i]
			if st.retry[i] {
				retries++
			}
		}
		p := "grant.open." + r.Tag
		values[p+".p50_us"] = pctUS(lat, 50)
		values[p+".p99_us"] = pctUS(lat, 99)
		values[p+".late_p99_us"] = pctUS(late, 99)
		values[p+".retry_share"] = float64(retries) / float64(n)
		values[p+".reqs_per_frame"] = float64(n) / float64(st.frames)
	}

	n1, s1 := stageSums(g.reg)
	values["grant.open.queue_wait_us"] = 0
	if dn := n1["queue_wait"] - n0["queue_wait"]; dn > 0 {
		values["grant.open.queue_wait_us"] = (s1["queue_wait"] - s0["queue_wait"]) / float64(dn) * 1e6
	}
	values["grant.open.queue_depth_max"] = depthMax
	finished = true
	t.ck.ops(1)
	t.ck.failAll(g.finish(false))
	return nil
}

// pctUS is a percentile in µs, or 0 when fewer than ten samples lie beyond
// it and it must not be reported.
func pctUS(samples []int64, p float64) float64 {
	v, ok := stats.Percentile(samples, p)
	if !ok {
		return 0
	}
	return float64(v) / 1e3
}
