package sim

import (
	"fmt"
	"slices"
	"time"

	"wdmsched/internal/analysis"
	"wdmsched/internal/async"
	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/pathsim"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// Extension experiments beyond the paper's own artifacts: the QoS future
// work it names in Section VI (S6), an ablation of the fair tie-break it
// prescribes in Section III (S7), the parallel variant it sketches in
// Section IV-B (S9: the word-parallel kernel NewExact builds, held to the
// sequential Table 3 loop on full Results), and a cross-check of the
// simulator against closed-form loss models (S8).

func init() {
	register(Experiment{
		ID:    "S6",
		Title: "QoS extension (paper §VI future work) — strict priority classes",
		Run:   runS6,
	})
	register(Experiment{
		ID:    "S7",
		Title: "Fairness ablation — round-robin vs random vs fixed-priority tie-break",
		Run:   runS7,
	})
	register(Experiment{
		ID:    "S8",
		Title: "Simulator vs closed-form loss models (full range & no conversion exact)",
		Run:   runS8,
	})
	register(Experiment{
		ID:    "S9",
		Title: "Parallel BFA (paper §IV-B remark) — word-parallel kernel, Results identical to Table 3",
		Run:   runS9,
	})
	register(Experiment{
		ID:    "S10",
		Title: "Asynchronous wavelength routing (paper §I) — blocking vs conversion degree, Erlang-B cross-check",
		Run:   runS10,
	})
	register(Experiment{
		ID:    "S11",
		Title: "Multi-hop paths (paper §I motivation) — wavelength continuity vs conversion",
		Run:   runS11,
	})
	register(Experiment{
		ID:    "S12",
		Title: "Multi-break ablation — quality vs number of breaking positions tried",
		Run:   runS12,
	})
}

// runS12 sweeps the Section IV-C trade-off knob: try m of the d breaking
// positions (centre-out order), measuring the mean/worst gap to optimal
// and the per-slot cost. m = 1 is DeltaBreak, m = d is exact BFA.
func runS12(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	const k = 16
	conv, err := wavelength.New(wavelength.Circular, k, 3, 3) // d = 7
	if err != nil {
		return nil, err
	}
	d := conv.Degree()
	exact, err := core.NewExact(conv)
	if err != nil {
		return nil, err
	}
	// Centre-out position order: 4, 3, 5, 2, 6, 1, 7 for d = 7.
	order := make([]int, 0, d)
	mid := (d + 1) / 2
	order = append(order, mid)
	for off := 1; len(order) < d; off++ {
		if mid-off >= 1 {
			order = append(order, mid-off)
		}
		if mid+off <= d && len(order) < d {
			order = append(order, mid+off)
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("S12 — breaks tried vs matching quality (k=%d, d=%d, centre-out positions)", k, d),
		"breaks tried", "Theorem 3 bound", "worst gap", "mean gap", "ns/op")
	for m := 1; m <= d; m++ {
		mb, err := core.NewMultiBreak(conv, order[:m])
		if err != nil {
			return nil, err
		}
		rng := traffic.NewRNG(cfg.Seed)
		vec := make([]int, k)
		res, opt := core.NewResult(k), core.NewResult(k)
		worst := 0
		var mean metrics.Welford
		start := time.Now()
		for i := 0; i < cfg.Trials; i++ {
			randomVector(rng, vec, 3)
			mb.Schedule(vec, nil, res)
			exact.Schedule(vec, nil, opt)
			gap := opt.Size - res.Size
			if gap < 0 || gap > mb.Bound() {
				return nil, fmt.Errorf("sim: S12 gap %d outside [0,%d] with %d breaks", gap, mb.Bound(), m)
			}
			if gap > worst {
				worst = gap
			}
			mean.Observe(float64(gap))
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / float64(cfg.Trials)
		t.AddRowf(m, mb.Bound(), worst, mean.Mean(), elapsed)
	}
	t.AddNote("quality improves monotonically with breaks tried; m=%d is the exact Table 3 algorithm", d)
	return []*metrics.Table{t}, nil
}

func runS11(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	const k, links = 8, 12
	arrivals := cfg.Slots * 60
	t := metrics.NewTable(
		fmt.Sprintf("S11 — blocking on multi-hop paths (k=%d, %d-link chain, per-link load 3 Erlangs)", k, links),
		"hops", "d=1 (continuity)", "d=3 first-fit", "d=3 stay", "d=5", "full")
	mkConv := func(d int) (wavelength.Conversion, error) {
		if d >= k {
			return wavelength.New(wavelength.Full, k, 0, 0)
		}
		return wavelength.NewSymmetric(wavelength.Circular, k, d)
	}
	runOne := func(d, hops int, policy pathsim.AssignPolicy) (float64, error) {
		conv, err := mkConv(d)
		if err != nil {
			return 0, err
		}
		st, err := pathsim.Run(pathsim.Config{
			Conv: conv, Links: links, Hops: hops,
			ArrivalRate: 3 * float64(links) / float64(hops),
			MeanHold:    1, Policy: policy, Seed: cfg.Seed,
		}, arrivals)
		if err != nil {
			return 0, err
		}
		return st.BlockingProbability(), nil
	}
	for _, hops := range []int{1, 2, 4, 6} {
		row := []interface{}{hops}
		for _, pt := range []struct {
			d      int
			policy pathsim.AssignPolicy
		}{
			{1, pathsim.PathFirstFit},
			{3, pathsim.PathFirstFit},
			{3, pathsim.PathStay},
			{5, pathsim.PathFirstFit},
			{k, pathsim.PathFirstFit},
		} {
			p, err := runOne(pt.d, hops, pt.policy)
			if err != nil {
				return nil, err
			}
			row = append(row, p)
		}
		t.AddRowf(row...)
	}
	t.AddNote("conversion removes the wavelength continuity constraint; on long paths greedy first-fit with small d drifts the wavelength and loses part of the gain — the conversion-minimizing 'stay' policy recovers most of it (see EXPERIMENTS.md)")
	return []*metrics.Table{t}, nil
}

func runS10(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	const k = 16
	arrivals := cfg.Slots * 100
	degrees := []int{1, 3, 5, 7, 9, k}
	t := metrics.NewTable(
		fmt.Sprintf("S10 — asynchronous FCFS blocking vs conversion degree (k=%d, exponential holds)", k),
		"offered Erlangs", "d=1", "ErlangB(1,A/k)", "d=3", "d=5", "d=7", "d=9", "full", "ErlangB(k,A)")
	for _, a := range []float64{8, 10, 12} {
		acfg := async.Config{ArrivalRate: a, MeanHold: 1, Seed: cfg.Seed, Policy: async.FirstFit}
		probs, err := async.Sweep(wavelength.Circular, k, degrees, acfg, arrivals)
		if err != nil {
			return nil, err
		}
		e1, err := analysis.ErlangB(1, a/k)
		if err != nil {
			return nil, err
		}
		ek, err := analysis.ErlangB(k, a)
		if err != nil {
			return nil, err
		}
		t.AddRowf(a, probs[0], e1, probs[1], probs[2], probs[3], probs[4], probs[5], ek)
	}
	t.AddNote("d=1 matches ErlangB(1, A/k) and full range matches ErlangB(k, A); blocking falls monotonically in d")
	return []*metrics.Table{t}, nil
}

// drawVector fills vec with Binomial(n, load/n) arrivals per wavelength —
// the per-output-fiber arrival law under uniform Bernoulli traffic.
func drawVector(rng *traffic.RNG, vec []int, n int, load float64) {
	p := load / float64(n)
	for w := range vec {
		c := 0
		for i := 0; i < n; i++ {
			if rng.Bernoulli(p) {
				c++
			}
		}
		vec[w] = c
	}
}

func runS6(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	const n, k = 8, 16
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	ps, err := core.NewPriorityScheduler(conv)
	if err != nil {
		return nil, err
	}
	const highLoad = 0.3
	t := metrics.NewTable(
		fmt.Sprintf("S6 — strict priority, high class fixed at load %.1f (N=%d, k=%d, d=3)", highLoad, n, k),
		"low-class load", "high loss", "low loss", "aggregate loss")
	rng := traffic.NewRNG(cfg.Seed)
	for _, lowLoad := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		high := make([]int, k)
		low := make([]int, k)
		results := []*core.Result{core.NewResult(k), core.NewResult(k)}
		var offHigh, offLow, grHigh, grLow int
		for slot := 0; slot < cfg.Slots; slot++ {
			drawVector(rng, high, n, highLoad)
			drawVector(rng, low, n, lowLoad)
			if err := ps.ScheduleClasses([][]int{high, low}, nil, results); err != nil {
				return nil, err
			}
			offHigh += core.TotalRequests(high)
			offLow += core.TotalRequests(low)
			grHigh += results[0].Size
			grLow += results[1].Size
		}
		loss := func(off, gr int) float64 {
			if off == 0 {
				return 0
			}
			return 1 - float64(gr)/float64(off)
		}
		t.AddRowf(lowLoad, loss(offHigh, grHigh), loss(offLow, grLow),
			loss(offHigh+offLow, grHigh+grLow))
	}
	t.AddNote("high-class loss stays flat as low-class load grows: strict priority isolates the high class")

	// End-to-end variant: the same policy running inside the switch, with
	// packets carrying Priority classes (20% high / 80% low).
	t2 := metrics.NewTable(
		fmt.Sprintf("S6b — strict priority through the interconnect (N=%d, k=%d, d=3, 20%%/80%% class mix)", n, k),
		"total load", "high loss", "low loss")
	for _, load := range []float64{0.6, 0.8, 1.0} {
		base, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed}, load)
		if err != nil {
			return nil, err
		}
		gen, err := traffic.WithPriorities(base, []float64{0.2, 0.8}, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		sw, err := interconnect.New(interconnect.Config{
			N: n, Conv: conv, PriorityClasses: 2, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		st, err := sw.Run(gen, cfg.Slots)
		if err != nil {
			return nil, err
		}
		t2.AddRowf(load, st.ClassLossRate(0), st.ClassLossRate(1))
	}
	t2.AddNote("the QoS extension runs end to end: Packet.Priority → per-port strict-priority matching")
	return []*metrics.Table{t, t2}, nil
}

func runS7(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("S7 — tie-break fairness at load 1.0 (N=%d, k=%d, d=3)", n, k),
		"selector", "granted", "Jain index", "min fiber share", "max fiber share")
	for _, sel := range []string{"round-robin", "random", "fixed-priority"} {
		gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed}, 1.0)
		if err != nil {
			return nil, err
		}
		sw, err := interconnect.New(interconnect.Config{
			N: n, Conv: conv, Selector: sel, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		st, err := sw.Run(gen, cfg.Slots)
		if err != nil {
			return nil, err
		}
		minG, maxG := st.PerInputGranted[0], st.PerInputGranted[0]
		for _, g := range st.PerInputGranted {
			if g < minG {
				minG = g
			}
			if g > maxG {
				maxG = g
			}
		}
		total := float64(st.Granted.Value())
		t.AddRowf(sel, st.Granted.Value(), st.FairnessJain(),
			float64(minG)/total, float64(maxG)/total)
	}
	t.AddNote("round-robin and random (the §III prescriptions) are fair; the fixed-priority control favors low fibers")
	return []*metrics.Table{t}, nil
}

func runS8(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	const n, k = 8, 16
	t := metrics.NewTable(
		fmt.Sprintf("S8 — simulated loss vs closed-form models (N=%d, k=%d, uniform Bernoulli, 1-slot holds)", n, k),
		"load", "sim d=1", "model d=1", "sim d=3", "bounds d=3", "sim full", "model full")
	for _, load := range []float64{0.3, 0.6, 0.9, 1.0} {
		simLoss := func(conv wavelength.Conversion, seedOff uint64) (float64, error) {
			gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed + seedOff}, load)
			if err != nil {
				return 0, err
			}
			sw, err := interconnect.New(interconnect.Config{N: n, Conv: conv, Seed: cfg.Seed})
			if err != nil {
				return 0, err
			}
			st, err := sw.Run(gen, cfg.Slots)
			if err != nil {
				return 0, err
			}
			return st.LossRate(), nil
		}
		d1, err := simLoss(wavelength.MustNew(wavelength.Circular, k, 0, 0), 1)
		if err != nil {
			return nil, err
		}
		d3, err := simLoss(wavelength.MustNew(wavelength.Circular, k, 1, 1), 2)
		if err != nil {
			return nil, err
		}
		full, err := simLoss(wavelength.MustNew(wavelength.Full, k, 0, 0), 3)
		if err != nil {
			return nil, err
		}
		m1, err := analysis.NoConversionLoss(n, k, load)
		if err != nil {
			return nil, err
		}
		mFull, err := analysis.FullRangeLoss(n, k, load)
		if err != nil {
			return nil, err
		}
		lo, hi, err := analysis.LimitedRangeLossBounds(n, k, 3, load)
		if err != nil {
			return nil, err
		}
		if d3 < lo-0.02 || d3 > hi+0.02 {
			return nil, fmt.Errorf("sim: S8 d=3 loss %v outside bounds [%v,%v] at load %v", d3, lo, hi, load)
		}
		t.AddRowf(load, d1, m1, d3, fmt.Sprintf("[%.4g, %.4g]", lo, hi), full, mFull)
	}
	t.AddNote("d=1 and full-range simulated losses match the exact binomial formulas; d=3 falls within the analytical bounds")
	return []*metrics.Table{t}, nil
}

func runS9(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	t := metrics.NewTable("S9 — word-parallel BFA vs sequential BFA (paper §IV-B: the d breaking candidates side by side)",
		"k", "d", "trials", "result mismatches")
	rng := traffic.NewRNG(cfg.Seed)
	for _, shape := range []struct{ k, e, f int }{{8, 1, 1}, {16, 2, 2}, {32, 3, 3}} {
		conv, err := wavelength.New(wavelength.Circular, shape.k, shape.e, shape.f)
		if err != nil {
			return nil, err
		}
		seq, err := core.NewBreakFirstAvailable(conv)
		if err != nil {
			return nil, err
		}
		par, err := core.NewExact(conv)
		if err != nil {
			return nil, err
		}
		vec := make([]int, shape.k)
		a, b := core.NewResult(shape.k), core.NewResult(shape.k)
		mismatches := 0
		for i := 0; i < cfg.Trials; i++ {
			randomVector(rng, vec, 3)
			seq.Schedule(vec, nil, a)
			par.Schedule(vec, nil, b)
			if a.Size != b.Size || a.BreakChannel != b.BreakChannel ||
				!slices.Equal(a.ByOutput, b.ByOutput) || !slices.Equal(a.Granted, b.Granted) {
				mismatches++
			}
		}
		t.AddRowf(shape.k, conv.Degree(), cfg.Trials, mismatches)
		if mismatches != 0 {
			return nil, fmt.Errorf("sim: S9 word-parallel BFA diverged from Table 3 %d times", mismatches)
		}
	}
	t.AddNote("the d reduced graphs are independent; sizing every breaking candidate with word operations reproduces Table 3's full Result (assignment, per-wavelength grants, break channel)")
	return []*metrics.Table{t}, nil
}
