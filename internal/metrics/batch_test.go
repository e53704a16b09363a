package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// sameDurationHistogram reports every way got differs from want through
// the accessors a scrape or a report can reach.
func sameDurationHistogram(t *testing.T, got, want *DurationHistogram) {
	t.Helper()
	for b := 0; b < got.NumBuckets(); b++ {
		if g, w := got.BucketCount(b), want.BucketCount(b); g != w {
			t.Errorf("bucket %d = %d, want %d", b, g, w)
		}
	}
	if g, w := got.Count(), want.Count(); g != w {
		t.Errorf("Count = %d, want %d", g, w)
	}
	if g, w := got.Sum(), want.Sum(); g != w {
		t.Errorf("Sum = %d, want %d", g, w)
	}
	if g, w := got.Max(), want.Max(); g != w {
		t.Errorf("Max = %d, want %d", g, w)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("Quantile(%v) = %d, want %d", q, g, w)
		}
	}
}

// TestDurationBatchMatchesObserve is the batch ≡ per-sample property:
// any sequence of samples — the edge values, random magnitudes across
// every bucket, repeats through AddN — merged in batches of any size
// leaves the histogram exactly as observing each sample would.
func TestDurationBatchMatchesObserve(t *testing.T) {
	edges := []time.Duration{-1, math.MinInt64, 0, 1, 2, 3, 1023, 1024, math.MaxInt64}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		got, want := NewDurationHistogram(), NewDurationHistogram()
		var batch DurationBatch
		for n := rng.Intn(400); n > 0; n-- {
			var d time.Duration
			if rng.Intn(4) == 0 {
				d = edges[rng.Intn(len(edges))]
			} else {
				d = time.Duration(rng.Int63() >> uint(rng.Intn(63)))
			}
			reps := int64(1)
			if rng.Intn(3) == 0 {
				reps = int64(rng.Intn(5)) // 0 records nothing
				batch.AddN(d, reps)
			} else {
				batch.Add(d)
			}
			for i := int64(0); i < reps; i++ {
				want.Observe(d)
			}
			if rng.Intn(16) == 0 {
				got.Merge(&batch)
			}
		}
		got.Merge(&batch)
		sameDurationHistogram(t, got, want)
		if batch != (DurationBatch{}) {
			t.Errorf("batch not empty after Merge: %+v", batch)
		}
		if t.Failed() {
			t.Fatalf("trial %d diverged", trial)
		}
	}
}

// TestDurationBatchEmptyMerge pins that merging nothing changes nothing
// — including a batch emptied by an earlier Merge, whose buckets must not
// be published twice.
func TestDurationBatchEmptyMerge(t *testing.T) {
	h, want := NewDurationHistogram(), NewDurationHistogram()
	var batch DurationBatch
	h.Merge(&batch)
	sameDurationHistogram(t, h, want)

	batch.AddN(5*time.Microsecond, 3)
	batch.AddN(time.Second, -2)
	h.Merge(&batch)
	h.Merge(&batch)
	for i := 0; i < 3; i++ {
		want.Observe(5 * time.Microsecond)
	}
	sameDurationHistogram(t, h, want)
}

// TestDurationBatchConcurrentMerge hammers one histogram with batch
// merges and single observations from many goroutines while a reader
// scrapes it: under -race this is the safety gate for publishing a round's
// samples while the telemetry server reads; the totals must come out
// exact, and no scrape may see a quantile above the largest sample.
func TestDurationBatchConcurrentMerge(t *testing.T) {
	const writers, rounds, perRound = 6, 400, 64
	h := NewDurationHistogram()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if q := h.Quantile(0.99); q > perRound*time.Microsecond {
					t.Errorf("Quantile(0.99) = %v mid-run, above every sample", q)
					return
				}
				_ = h.Count()
				_ = h.Mean()
				_ = h.FractionAbove(time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch DurationBatch
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					for i := 1; i <= perRound; i++ {
						batch.Add(time.Duration(i) * time.Microsecond)
					}
					h.Merge(&batch)
				} else {
					for i := 1; i <= perRound; i++ {
						h.Observe(time.Duration(i) * time.Microsecond)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if got, want := h.Count(), int64(writers*rounds*perRound); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	wantSum := time.Duration(writers*rounds) * perRound * (perRound + 1) / 2 * time.Microsecond
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
	if got := h.Max(); got != perRound*time.Microsecond {
		t.Errorf("Max = %v, want %v", got, perRound*time.Microsecond)
	}
}

// TestDurationBatchNoAllocs pins the batch path at zero allocations, a
// stack-local batch included (the grant ingest path uses one per frame).
func TestDurationBatchNoAllocs(t *testing.T) {
	h := NewDurationHistogram()
	if a := testing.AllocsPerRun(100, func() {
		var batch DurationBatch
		batch.Add(3 * time.Microsecond)
		batch.AddN(7*time.Microsecond, 4)
		h.Merge(&batch)
	}); a != 0 {
		t.Errorf("batch add+merge: %v allocs/run, want 0", a)
	}
}

// TestHistogramAddSnapshotMatchesReplay pins AddSnapshot against its
// definition: observing every recorded value again, one at a time.
// Overflowed values keep their magnitude through Sum.
func TestHistogramAddSnapshotMatchesReplay(t *testing.T) {
	src := NewHistogram(8)
	rng := rand.New(rand.NewSource(3))
	var replayed []int
	for i := 0; i < 5000; i++ {
		v := rng.Intn(12) // 9..11 overflow
		src.Observe(v)
		replayed = append(replayed, v)
	}
	got, want := NewHistogram(8), NewHistogram(8)
	for _, h := range []*Histogram{got, want} {
		h.Observe(2) // a non-empty destination
		h.Observe(10)
	}
	got.AddSnapshot(src.Snapshot())
	for _, v := range replayed {
		want.Observe(v)
	}
	if g, w := fmt.Sprint(got.Snapshot()), fmt.Sprint(want.Snapshot()); g != w {
		t.Errorf("AddSnapshot = %s, replay = %s", g, w)
	}
	if got.Mean() != want.Mean() || got.Quantile(0.99) != want.Quantile(0.99) {
		t.Errorf("mean/p99 = %v/%d, replay %v/%d", got.Mean(), got.Quantile(0.99), want.Mean(), want.Quantile(0.99))
	}

	defer func() {
		if recover() == nil {
			t.Error("AddSnapshot accepted a snapshot of another bucket range")
		}
	}()
	got.AddSnapshot(NewHistogram(4).Snapshot())
}

var benchSink int64

// BenchmarkDurationObserve is the per-sample cost of the shared histogram:
// three atomic adds and a max check.
func BenchmarkDurationObserve(b *testing.B) {
	h := NewDurationHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i&0xffff) * time.Nanosecond)
	}
	benchSink = h.Count()
}

// BenchmarkDurationBatchMerge is the same samples through a batch, merged
// every 1, 16 or 256 samples; ns/op is per sample, so the rows read
// directly against BenchmarkDurationObserve (1 ≈ Observe: a one-sample
// merge touches one bucket; 256 is a bench-sized scheduling round).
func BenchmarkDurationBatchMerge(b *testing.B) {
	for _, per := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("samples=%d", per), func(b *testing.B) {
			h := NewDurationHistogram()
			var batch DurationBatch
			for i := 0; i < b.N; i++ {
				batch.Add(time.Duration(i&0xffff) * time.Nanosecond)
				if (i+1)&(per-1) == 0 { // per is a power of two
					h.Merge(&batch)
				}
			}
			h.Merge(&batch)
			benchSink = h.Count()
		})
	}
}
