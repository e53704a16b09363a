package traffic

import (
	"bytes"
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", v, c, want)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams identical at first draw")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	for _, mean := range []float64{1, 2, 5, 20} {
		const draws = 50000
		sum := 0
		for i := 0; i < draws; i++ {
			d := r.Geometric(mean)
			if d < 1 {
				t.Fatalf("Geometric(%v) returned %d < 1", mean, d)
			}
			sum += d
		}
		got := float64(sum) / draws
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Geometric(%v) empirical mean %v", mean, got)
		}
	}
}

func TestBernoulliLoadAndShape(t *testing.T) {
	cfg := Config{N: 8, K: 4, Seed: 1}
	g, err := NewBernoulli(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 2000
	total := 0
	destCounts := make([]int, cfg.N)
	var buf []Packet
	for s := 0; s < slots; s++ {
		buf = g.Generate(s, buf[:0])
		for _, p := range buf {
			if p.InputFiber < 0 || p.InputFiber >= cfg.N || p.Wavelength < 0 || p.Wavelength >= cfg.K {
				t.Fatalf("packet out of shape: %+v", p)
			}
			if p.Duration != 1 {
				t.Fatalf("default holding time must be 1, got %d", p.Duration)
			}
			if p.Slot != s {
				t.Fatalf("slot stamp %d, want %d", p.Slot, s)
			}
			destCounts[p.DestFiber]++
			total++
		}
	}
	channels := cfg.N * cfg.K * slots
	gotLoad := float64(total) / float64(channels)
	if math.Abs(gotLoad-0.6) > 0.01 {
		t.Fatalf("empirical load %v, want 0.6", gotLoad)
	}
	want := float64(total) / float64(cfg.N)
	for d, c := range destCounts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("destination %d count %d too far from uniform %v", d, c, want)
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli(Config{N: 0, K: 4}, 0.5); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, err := NewBernoulli(Config{N: 2, K: 2}, 1.5); err == nil {
		t.Fatal("load > 1 accepted")
	}
	if _, err := NewBernoulli(Config{N: 2, K: 2}, -0.1); err == nil {
		t.Fatal("negative load accepted")
	}
}

func TestHotspotSkew(t *testing.T) {
	cfg := Config{N: 8, K: 4, Seed: 3}
	g, err := NewHotspot(cfg, 0.5, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	destCounts := make([]int, cfg.N)
	total := 0
	var buf []Packet
	for s := 0; s < 2000; s++ {
		buf = g.Generate(s, buf[:0])
		for _, p := range buf {
			destCounts[p.DestFiber]++
			total++
		}
	}
	// Hot fiber should receive fraction + (1−fraction)/N ≈ 0.5625.
	gotHot := float64(destCounts[2]) / float64(total)
	if math.Abs(gotHot-0.5625) > 0.02 {
		t.Fatalf("hot share %v, want ≈0.5625", gotHot)
	}
}

func TestHotspotValidation(t *testing.T) {
	cfg := Config{N: 4, K: 2}
	if _, err := NewHotspot(cfg, 0.5, 4, 0.5); err == nil {
		t.Fatal("hot fiber out of range accepted")
	}
	if _, err := NewHotspot(cfg, 0.5, 0, 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestBurstyLoadAndBurstiness(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 9}
	g, err := NewBursty(cfg, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Load()-0.5) > 1e-9 {
		t.Fatalf("Load() = %v", g.Load())
	}
	const slots = 4000
	total := 0
	// Track per-channel consecutive same-destination runs to confirm
	// bursts share a destination.
	lastDest := make(map[[2]int]int)
	lastSlot := make(map[[2]int]int)
	destChangesWithinBurst := 0
	var buf []Packet
	for s := 0; s < slots; s++ {
		buf = g.Generate(s, buf[:0])
		for _, p := range buf {
			total++
			key := [2]int{p.InputFiber, p.Wavelength}
			if prev, ok := lastSlot[key]; ok && prev == s-1 {
				if lastDest[key] != p.DestFiber {
					destChangesWithinBurst++
				}
			}
			lastDest[key] = p.DestFiber
			lastSlot[key] = s
		}
	}
	gotLoad := float64(total) / float64(cfg.N*cfg.K*slots)
	if math.Abs(gotLoad-0.5) > 0.05 {
		t.Fatalf("empirical load %v, want ≈0.5", gotLoad)
	}
	// Consecutive-slot packets on a channel are nearly always the same
	// burst; destination changes should be rare (only back-to-back
	// bursts).
	if rate := float64(destChangesWithinBurst) / float64(total); rate > 0.15 {
		t.Fatalf("destination churn within bursts too high: %v", rate)
	}
}

func TestBurstyValidation(t *testing.T) {
	if _, err := NewBursty(Config{N: 2, K: 2}, 0.5, 4); err == nil {
		t.Fatal("meanOn < 1 accepted")
	}
}

func TestHoldingTimes(t *testing.T) {
	cfg := Config{N: 2, K: 2, Seed: 21, Hold: HoldingTime{Mean: 4, Deterministic: true}}
	g, _ := NewBernoulli(cfg, 1)
	buf := g.Generate(0, nil)
	for _, p := range buf {
		if p.Duration != 4 {
			t.Fatalf("deterministic duration %d, want 4", p.Duration)
		}
	}
	cfg.Hold = HoldingTime{Mean: 4}
	g2, _ := NewBernoulli(cfg, 1)
	sum, n := 0, 0
	for s := 0; s < 3000; s++ {
		for _, p := range g2.Generate(s, nil) {
			sum += p.Duration
			n++
		}
	}
	if mean := float64(sum) / float64(n); math.Abs(mean-4) > 0.2 {
		t.Fatalf("geometric mean duration %v, want ≈4", mean)
	}
}

func TestWithPrioritiesDistribution(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 51}
	base, _ := NewBernoulli(cfg, 0.8)
	gen, err := WithPriorities(base, []float64{0.25, 0.75}, 53)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	total := 0
	var buf []Packet
	for s := 0; s < 2000; s++ {
		buf = gen.Generate(s, buf[:0])
		for _, p := range buf {
			counts[p.Priority]++
			total++
		}
	}
	if len(counts) != 2 {
		t.Fatalf("classes seen: %v", counts)
	}
	share0 := float64(counts[0]) / float64(total)
	if math.Abs(share0-0.25) > 0.02 {
		t.Fatalf("class 0 share %v, want ≈0.25", share0)
	}
	if gen.Name() == "" {
		t.Fatal("empty Name")
	}
}

func TestWithPrioritiesValidation(t *testing.T) {
	base, _ := NewBernoulli(Config{N: 2, K: 2}, 0.5)
	if _, err := WithPriorities(base, nil, 1); err == nil {
		t.Fatal("empty distribution accepted")
	}
	if _, err := WithPriorities(base, []float64{0.5, -0.1, 0.6}, 1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := WithPriorities(base, []float64{0.5, 0.2}, 1); err == nil {
		t.Fatal("non-normalized distribution accepted")
	}
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	cfg := Config{N: 4, K: 3, Seed: 31}
	g, _ := NewBernoulli(cfg, 0.7)
	tr, err := Record(g, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPackets() == 0 {
		t.Fatal("empty trace at load 0.7")
	}

	// Replay must reproduce the recorded slots exactly.
	rep := tr.Replay()
	for s := 0; s < 50; s++ {
		got := rep.Generate(s, nil)
		if len(got) != len(tr.Slots[s]) {
			t.Fatalf("slot %d: %d packets, want %d", s, len(got), len(tr.Slots[s]))
		}
		for i := range got {
			if got[i] != tr.Slots[s][i] {
				t.Fatalf("slot %d packet %d mismatch", s, i)
			}
		}
	}
	if got := rep.Generate(99, nil); len(got) != 0 {
		t.Fatal("replay beyond range must be empty")
	}

	// Serialize and read back.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTrace(tr2, tr); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReadTraceTruncated feeds every proper prefix of a serialized trace
// to the decoder: each must return an error, never panic or succeed.
func TestReadTraceTruncated(t *testing.T) {
	cfg := Config{N: 4, K: 3, Seed: 9}
	g, _ := NewBernoulli(cfg, 0.9)
	tr, _ := Record(g, cfg, 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", cut, len(full))
		}
	}
}

// TestReadTraceCorruptStream flips bytes throughout a serialized trace.
// Every corruption must either be rejected by ReadTrace or produce a
// trace whose packets all lie within its shape — decoding must never
// crash on hostile input.
func TestReadTraceCorruptStream(t *testing.T) {
	cfg := Config{N: 4, K: 3, Seed: 9}
	g, _ := NewBernoulli(cfg, 0.9)
	tr, _ := Record(g, cfg, 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for pos := 0; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		got, err := ReadTrace(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if err := checkShape(got); err != nil {
			t.Fatalf("flip at byte %d: %v", pos, err)
		}
	}
}

// TestReadTraceRejectsBadHeader covers the header-level error paths: a
// foreign or unknown format, nonsensical shape fields and a header cut
// short. The version and shape cases differ from a valid empty 2×2 trace
// in one field.
func TestReadTraceRejectsBadHeader(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(gzipBytes(t, append([]byte("WDT2"), 2, 2, 0, 0, 0)))); err != nil {
		t.Fatalf("valid empty trace rejected: %v", err)
	}
	for name, payload := range map[string][]byte{
		"wrong magic":    []byte("XYZ!some payload"),
		"future version": append([]byte("WDT3"), 2, 2, 0, 0, 0),
		"zero N":         append([]byte("WDT2"), 0, 2, 0, 0, 0),
		"zero K":         append([]byte("WDT2"), 2, 0, 0, 0, 0),
		"huge N":         append([]byte("WDT2"), 0x80, 0x80, 0x80, 0x01, 2, 0, 0, 0),
		"short header":   []byte("WDT2"),
	} {
		if _, err := ReadTrace(bytes.NewReader(gzipBytes(t, payload))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRecordValidation(t *testing.T) {
	cfg := Config{N: 2, K: 2}
	g, _ := NewBernoulli(cfg, 0.5)
	if _, err := Record(g, cfg, -1); err == nil {
		t.Fatal("negative slots accepted")
	}
	if _, err := Record(g, Config{N: 0, K: 2}, 5); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestGeneratorNames(t *testing.T) {
	cfg := Config{N: 2, K: 2, Seed: 1}
	b, _ := NewBernoulli(cfg, 0.25)
	if b.Name() != "bernoulli(load=0.25)" {
		t.Fatalf("Name = %q", b.Name())
	}
	h, _ := NewHotspot(cfg, 0.5, 1, 0.75)
	if h.Name() != "hotspot(load=0.50,hot=1,frac=0.75)" {
		t.Fatalf("Name = %q", h.Name())
	}
	bu, _ := NewBursty(cfg, 4, 2)
	if bu.Name() != "bursty(on=4.0,off=2.0)" {
		t.Fatalf("Name = %q", bu.Name())
	}
	tr := &Trace{N: 2, K: 2, Slots: make([][]Packet, 3)}
	if tr.Replay().Name() != "trace(3 slots)" {
		t.Fatalf("Name = %q", tr.Replay().Name())
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errWriteFailed
	}
	w.after -= len(p)
	return len(p), nil
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestTraceWriteFailurePropagates(t *testing.T) {
	cfg := Config{N: 2, K: 2, Seed: 1}
	g, _ := NewBernoulli(cfg, 1)
	tr, _ := Record(g, cfg, 10)
	if err := tr.Write(&failingWriter{after: 0}); err == nil {
		t.Fatal("write failure swallowed")
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(23)
	const draws = 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(2) // mean 0.5
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean %v, want ≈0.5", mean)
	}
}

func TestGeneratorDeterminismAcrossRuns(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 77}
	mk := func() *Trace {
		g, _ := NewBursty(cfg, 4, 4)
		tr, _ := Record(g, cfg, 100)
		return tr
	}
	a, b := mk(), mk()
	if a.NumPackets() != b.NumPackets() {
		t.Fatal("same seed produced different traces")
	}
	for s := range a.Slots {
		for i := range a.Slots[s] {
			if a.Slots[s][i] != b.Slots[s][i] {
				t.Fatalf("slot %d packet %d differs", s, i)
			}
		}
	}
}
