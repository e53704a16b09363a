package sim

import (
	"fmt"
	"time"

	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func init() {
	register(Experiment{
		ID:    "S1",
		Title: "Limited vs full range conversion — throughput and loss vs load",
		Run:   runS1,
	})
	register(Experiment{
		ID:    "S2",
		Title: "Exact (BFA) vs shortest-edge approximation — throughput trade-off",
		Run:   runS2,
	})
	register(Experiment{
		ID:    "S3",
		Title: "Multi-slot connections — loss vs holding time, disturb vs no-disturb",
		Run:   runS3,
	})
	register(Experiment{
		ID:    "S4",
		Title: "Distributed scheduling — slot latency, sequential vs worker crew",
		Run:   runS4,
	})
	register(Experiment{
		ID:    "S5",
		Title: "Fabric feasibility — every grant routable through the Fig. 1 datapath",
		Run:   runS5,
	})
}

// simShape returns the interconnect shape for the studies.
func simShape(cfg RunConfig) (n, k int) {
	if cfg.Quick {
		return 4, 8
	}
	return 8, 16
}

// runLoss runs one simulation point and returns (loss rate, throughput).
func runLoss(cfg RunConfig, swCfg interconnect.Config, gen traffic.Generator, slots int) (float64, float64, error) {
	sw, err := interconnect.New(swCfg)
	if err != nil {
		return 0, 0, err
	}
	st, err := sw.Run(gen, slots)
	if err != nil {
		return 0, 0, err
	}
	return st.LossRate(), st.Throughput(swCfg.N, swCfg.Conv.K()), nil
}

func runS1(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	loads := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0}
	type variant struct {
		name string
		conv wavelength.Conversion
	}
	mk := func(kind wavelength.Kind, d int) wavelength.Conversion {
		e := (d - 1) / 2
		c, err := wavelength.New(kind, k, e, e)
		if err != nil {
			panic(err)
		}
		return c
	}
	variants := []variant{
		{"d=1 (none)", mk(wavelength.Circular, 1)},
		{"d=3 circ", mk(wavelength.Circular, 3)},
		{"d=5 circ", mk(wavelength.Circular, 5)},
		{"d=3 noncirc", mk(wavelength.NonCircular, 3)},
		{"full", wavelength.MustNew(wavelength.Full, k, 0, 0)},
	}
	lossSeries := make([]*metrics.Series, len(variants))
	thruSeries := make([]*metrics.Series, len(variants))
	for vi, v := range variants {
		lossSeries[vi] = &metrics.Series{Name: v.name, XLabel: "load"}
		thruSeries[vi] = &metrics.Series{Name: v.name, XLabel: "load"}
		for _, load := range loads {
			gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed + uint64(vi)}, load)
			if err != nil {
				return nil, err
			}
			loss, thru, err := runLoss(cfg, interconnect.Config{N: n, Conv: v.conv, Seed: cfg.Seed}, gen, cfg.Slots)
			if err != nil {
				return nil, err
			}
			lossSeries[vi].Add(load, loss)
			thruSeries[vi].Add(load, thru)
		}
	}
	lossT, err := metrics.SeriesTable(
		fmt.Sprintf("S1a — packet loss rate vs offered load (N=%d, k=%d, uniform Bernoulli)", n, k),
		lossSeries...)
	if err != nil {
		return nil, err
	}
	thruT, err := metrics.SeriesTable(
		fmt.Sprintf("S1b — normalized throughput vs offered load (N=%d, k=%d)", n, k),
		thruSeries...)
	if err != nil {
		return nil, err
	}
	lossT.AddNote("paper §I claim: small-d limited range approaches full range; d=1 is the floor")
	return []*metrics.Table{lossT, thruT}, nil
}

func runS2(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	loads := []float64{0.5, 0.8, 1.0}
	var series []*metrics.Series
	for _, d := range []int{3, 5, 7} {
		e := (d - 1) / 2
		conv, err := wavelength.New(wavelength.Circular, k, e, e)
		if err != nil {
			return nil, err
		}
		// The column names the algorithm; "exact" is how BFA runs (the
		// word-parallel kernel) wherever it is merely the optimum.
		for _, alg := range []struct{ label, sched string }{
			{"break-first-available", "exact"}, {"shortest-edge", "shortest-edge"},
		} {
			s := &metrics.Series{Name: fmt.Sprintf("d=%d %s", d, alg.label), XLabel: "load"}
			for _, load := range loads {
				gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed + uint64(d)}, load)
				if err != nil {
					return nil, err
				}
				loss, _, err := runLoss(cfg, interconnect.Config{
					N: n, Conv: conv, Scheduler: alg.sched, Seed: cfg.Seed,
				}, gen, cfg.Slots)
				if err != nil {
					return nil, err
				}
				s.Add(load, loss)
			}
			series = append(series, s)
		}
	}
	t, err := metrics.SeriesTable(
		fmt.Sprintf("S2 — loss: exact BFA vs shortest-edge single break (N=%d, k=%d)", n, k),
		series...)
	if err != nil {
		return nil, err
	}
	t.AddNote("Theorem 3: per-slot gap ≤ (d−1)/2; aggregate loss difference stays small")
	return []*metrics.Table{t}, nil
}

func runS3(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	var series []*metrics.Series
	for _, disturb := range []bool{false, true} {
		name := "no-disturb"
		if disturb {
			name = "disturb"
		}
		s := &metrics.Series{Name: name, XLabel: "mean holding (slots)"}
		pre := &metrics.Series{Name: name + " preempted/slot", XLabel: "mean holding (slots)"}
		for _, hold := range []float64{1, 2, 4, 8} {
			gen, err := traffic.NewBernoulli(traffic.Config{
				N: n, K: k, Seed: cfg.Seed,
				Hold: traffic.HoldingTime{Mean: hold},
			}, 0.6/hold) // keep carried load roughly constant
			if err != nil {
				return nil, err
			}
			sw, err := interconnect.New(interconnect.Config{N: n, Conv: conv, Seed: cfg.Seed, Disturb: disturb})
			if err != nil {
				return nil, err
			}
			st, err := sw.Run(gen, cfg.Slots)
			if err != nil {
				return nil, err
			}
			s.Add(hold, st.LossRate())
			pre.Add(hold, float64(st.Preempted.Value())/float64(cfg.Slots))
		}
		series = append(series, s, pre)
	}
	t, err := metrics.SeriesTable(
		fmt.Sprintf("S3 — multi-slot connections (N=%d, k=%d, d=3, carried load ≈0.6)", n, k),
		series...)
	if err != nil {
		return nil, err
	}
	t.AddNote("Section V: occupied channels removed from the request graph (no-disturb) or connections reassigned (disturb)")
	return []*metrics.Table{t}, nil
}

func runS4(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	k := 16
	slots := cfg.Slots / 4
	if slots < 50 {
		slots = 50
	}
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("S4 — wall time per slot: sequential vs distributed (k=16, d=3, load 1.0)",
		"N", "sequential µs/slot", "distributed µs/slot")
	sizes := []int{4, 8, 16, 32}
	if cfg.Quick {
		sizes = []int{4, 8}
	}
	for _, n := range sizes {
		row := []float64{}
		for _, distributed := range []bool{false, true} {
			tr, err := traffic.Record(mustBernoulli(traffic.Config{N: n, K: k, Seed: cfg.Seed}, 1.0),
				traffic.Config{N: n, K: k, Seed: cfg.Seed}, slots)
			if err != nil {
				return nil, err
			}
			sw, err := interconnect.New(interconnect.Config{
				N: n, Conv: conv, Seed: cfg.Seed, Distributed: distributed,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := sw.Run(tr.Replay(), slots); err != nil {
				return nil, err
			}
			row = append(row, float64(time.Since(start).Microseconds())/float64(slots))
		}
		t.AddRowf(n, row[0], row[1])
	}
	t.AddNote("per-port schedulers share no state; distributed mode demonstrates the Section I partition argument")
	return []*metrics.Table{t}, nil
}

func mustBernoulli(cfg traffic.Config, load float64) traffic.Generator {
	g, err := traffic.NewBernoulli(cfg, load)
	if err != nil {
		panic(err)
	}
	return g
}

func runS5(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	t := metrics.NewTable("S5 — datapath feasibility (ValidateFabric on, every slot routed)",
		"conversion", "scheduler", "selector", "granted", "feasible")
	// The scheduler column names the algorithm routed; BFA runs as "exact"
	// builds it.
	shapes := []struct {
		kind         wavelength.Kind
		label, sched string
	}{
		{wavelength.Circular, "break-first-available", "exact"},
		{wavelength.Circular, "shortest-edge", "shortest-edge"},
		{wavelength.NonCircular, "first-available", "first-available"},
	}
	for _, sh := range shapes {
		conv, err := wavelength.New(sh.kind, k, 1, 1)
		if err != nil {
			return nil, err
		}
		for _, sel := range []string{"round-robin", "random"} {
			gen, err := traffic.NewBernoulli(traffic.Config{
				N: n, K: k, Seed: cfg.Seed,
				Hold: traffic.HoldingTime{Mean: 2},
			}, 0.5)
			if err != nil {
				return nil, err
			}
			sw, err := interconnect.New(interconnect.Config{
				N: n, Conv: conv, Scheduler: sh.sched, Selector: sel,
				Seed: cfg.Seed, ValidateFabric: true,
			})
			if err != nil {
				return nil, err
			}
			st, err := sw.Run(gen, cfg.Slots)
			if err != nil {
				return nil, fmt.Errorf("sim: S5 infeasible routing: %w", err)
			}
			t.AddRowf(sh.kind.String(), sh.label, sel, st.Granted.Value(), "yes")
		}
	}
	t.AddNote("combiner exclusivity, converter reach and demux unicast hold for every granted slot")
	return []*metrics.Table{t}, nil
}
