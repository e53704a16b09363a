package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func offer(r *ExemplarRing, id uint64, slot, total int64) {
	r.Offer(Exemplar{
		ID: id, Tenant: "t", Slot: slot, Verdict: "granted",
		StartNS: 100, TotalNS: total,
		Stages: StageDurations{total / 2, 0, total / 2, 0, 0, 0},
	})
}

// TestExemplarRingSlowestRetained pins the eviction order: with more
// offers than K, exactly the K slowest survive, reported slowest first.
func TestExemplarRingSlowestRetained(t *testing.T) {
	r := NewExemplarRing(4, 1024)
	for i := 1; i <= 10; i++ {
		offer(r, uint64(i), 0, int64(i)*100) // totals 100..1000
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d exemplars, want 4", len(got))
	}
	for i, want := range []int64{1000, 900, 800, 700} {
		if got[i].TotalNS != want {
			t.Errorf("snapshot[%d].TotalNS = %d, want %d", i, got[i].TotalNS, want)
		}
	}
	if r.Offered() != 10 {
		t.Errorf("Offered = %d, want 10", r.Offered())
	}
	// IDs 1..4 were each inserted (the ring was filling), then displaced;
	// only offers strictly slower than the current floor enter after that.
	if d := r.Dropped(); d != 0 {
		t.Errorf("Dropped = %d, want 0 (ascending totals all enter)", d)
	}
	// A fast offer against a full ring is dropped without entering.
	offer(r, 99, 0, 50)
	if d := r.Dropped(); d != 1 {
		t.Errorf("Dropped = %d after sub-floor offer, want 1", d)
	}
}

// TestExemplarRingInterleavedInsert checks ordering with out-of-order
// totals: insertion keeps the retained set sorted regardless of offer
// order.
func TestExemplarRingInterleavedInsert(t *testing.T) {
	r := NewExemplarRing(3, 1024)
	for _, total := range []int64{500, 100, 900, 300, 700} {
		offer(r, uint64(total), 0, total)
	}
	got := r.Snapshot()
	want := []int64{900, 700, 500}
	if len(got) != len(want) {
		t.Fatalf("retained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TotalNS != want[i] {
			t.Errorf("snapshot[%d].TotalNS = %d, want %d", i, got[i].TotalNS, want[i])
		}
	}
}

// TestExemplarRingWindowRollover pins the window semantics: crossing a
// window boundary freezes the old retained set as the previous window,
// and a snapshot shows current-then-previous.
func TestExemplarRingWindowRollover(t *testing.T) {
	r := NewExemplarRing(2, 100)
	offer(r, 1, 10, 800)
	offer(r, 2, 20, 600)
	offer(r, 3, 30, 900)

	// Slot 150 crosses out of window [0,100): the first window freezes
	// (its two slowest retained) and slot 150 opens window [100,200).
	offer(r, 4, 150, 50)
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d exemplars after rollover, want 3 (1 current + 2 previous)", len(got))
	}
	if got[0].ID != 4 || got[0].WindowStart != 100 {
		t.Errorf("current window head = id %d winStart %d, want id 4 winStart 100", got[0].ID, got[0].WindowStart)
	}
	if got[1].TotalNS != 900 || got[2].TotalNS != 800 {
		t.Errorf("previous window = totals %d,%d, want 900,800 (slowest first)", got[1].TotalNS, got[2].TotalNS)
	}
	for _, e := range got[1:] {
		if e.WindowStart != 0 {
			t.Errorf("previous-window exemplar has winStart %d, want 0", e.WindowStart)
		}
	}

	// A second rollover discards the first window entirely.
	offer(r, 5, 310, 70)
	got = r.Snapshot()
	if len(got) != 2 {
		t.Fatalf("retained %d after second rollover, want 2", len(got))
	}
	if got[0].ID != 5 || got[1].ID != 4 {
		t.Errorf("got ids %d,%d, want 5,4", got[0].ID, got[1].ID)
	}
	if got[0].WindowStart != 300 {
		t.Errorf("winStart = %d, want 300", got[0].WindowStart)
	}
}

// TestExemplarOffersMatchSingleOffers pins the bracket against the
// one-request form: the same stream — ties, sub-floor offers and several
// window rolls, some falling inside a bracket — retains the same
// exemplars in the same order with the same counters, however the stream
// is cut into Begin/End runs.
func TestExemplarOffersMatchSingleOffers(t *testing.T) {
	const k, window, n = 4, 16, 400
	stream := make([]Exemplar, n)
	for i := range stream {
		total := int64((i*7919)%23) * 100 // 23 distinct totals: plenty of ties
		stream[i] = Exemplar{
			ID: uint64(i), Tenant: "t", Slot: int64(i / 5), Verdict: "granted",
			StartNS: int64(i), TotalNS: total, Stages: StageDurations{total},
		}
	}
	for _, run := range []int{1, 3, 64, n} {
		single, batched := NewExemplarRing(k, window), NewExemplarRing(k, window)
		for i := 0; i < n; i += run {
			o := batched.Begin()
			for j := i; j < i+run && j < n; j++ {
				single.Offer(stream[j])
				o.Offer(stream[j])
			}
			o.End()
			// Equal after every run, not just at the end: a roll inside a
			// bracket must freeze the same previous window.
			got, want := batched.Snapshot(), single.Snapshot()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("run length %d, after offer %d:\nbatched %v\nsingle  %v", run, i+run, got, want)
			}
		}
		if batched.Offered() != single.Offered() || batched.Dropped() != single.Dropped() {
			t.Errorf("run length %d: offered/dropped = %d/%d, single offers %d/%d", run,
				batched.Offered(), batched.Dropped(), single.Offered(), single.Dropped())
		}
		if got := len(batched.Snapshot()); got != 2*k {
			t.Errorf("run length %d: %d exemplars retained, want %d (current + previous window)", run, got, 2*k)
		}
	}
}

// TestExemplarRingConcurrent hammers Offer — one request at a time and in
// Begin/End runs — from several goroutines while readers snapshot: the
// race gate for scraping /exemplars off a live service.
func TestExemplarRingConcurrent(t *testing.T) {
	r := NewExemplarRing(8, 64)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := r.Snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i-1].WindowStart == snap[i].WindowStart && snap[i-1].TotalNS < snap[i].TotalNS {
						t.Error("snapshot not sorted slowest-first within a window")
						return
					}
				}
				_ = r.Offered()
				_ = r.Occupancy()
			}
		}
	}()
	var wg sync.WaitGroup
	const writers, perWriter = 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := func(i int) Exemplar {
				return Exemplar{ID: uint64(w*perWriter + i), Tenant: "t", Slot: int64(i / 10),
					Verdict: "granted", TotalNS: int64((i * 7919) % 10000)}
			}
			if w%2 == 0 {
				for i := 0; i < perWriter; i++ {
					r.Offer(ex(i))
				}
				return
			}
			for i := 0; i < perWriter; i += 16 { // 16 divides perWriter
				o := r.Begin()
				for j := i; j < i+16; j++ {
					o.Offer(ex(j))
				}
				o.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Offered() != writers*perWriter {
		t.Errorf("Offered = %d, want %d", r.Offered(), writers*perWriter)
	}
}

// TestStageDurationsJSONRoundTrip checks the name-keyed object encoding
// both ways, and that WriteJSONL output parses back via
// ReadExemplarsJSONL.
func TestStageDurationsJSONRoundTrip(t *testing.T) {
	s := StageDurations{1, 2, 3, 4, 5, 6}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range GrantStageNames {
		frag := fmt.Sprintf("%q:%d", name, i+1)
		if !strings.Contains(string(raw), frag) {
			t.Errorf("marshal missing %s: %s", frag, raw)
		}
	}
	var back StageDurations
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip = %v, want %v", back, s)
	}
	if s.Total() != 21 {
		t.Errorf("Total = %d, want 21", s.Total())
	}

	r := NewExemplarRing(4, 128)
	offer(r, 7, 3, 4200)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExemplarsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 || got[0].TotalNS != 4200 {
		t.Fatalf("JSONL round trip = %+v", got)
	}
}

// TestExemplarRingDefaults checks non-positive constructor arguments fall
// back to the documented defaults.
func TestExemplarRingDefaults(t *testing.T) {
	r := NewExemplarRing(0, 0)
	if r.K() != 16 || r.WindowSlots() != 1024 {
		t.Errorf("defaults = K %d window %d, want 16/1024", r.K(), r.WindowSlots())
	}
}
