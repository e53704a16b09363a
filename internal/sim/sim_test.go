package sim

import (
	"fmt"
	"strings"
	"testing"

	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func quickCfg() RunConfig {
	return RunConfig{Quick: true, Trials: 60, Slots: 120, Seed: 0x1234}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("position %d: %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Fatalf("%s: incomplete registration", id)
		}
	}
	if _, ok := ByID("P5"); !ok {
		t.Fatal("ByID(P5) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) succeeded")
	}
}

func TestDefaults(t *testing.T) {
	c := RunConfig{}.Defaults()
	if c.Slots == 0 || c.Trials == 0 || c.Seed == 0 {
		t.Fatalf("Defaults incomplete: %+v", c)
	}
	q := RunConfig{Quick: true}.Defaults()
	if q.Slots >= c.Slots || q.Trials >= c.Trials {
		t.Fatal("Quick must shrink the run")
	}
	keep := RunConfig{Slots: 7, Trials: 9, Seed: 3}.Defaults()
	if keep.Slots != 7 || keep.Trials != 9 || keep.Seed != 3 {
		t.Fatal("Defaults must not override explicit values")
	}
}

// TestAllExperimentsRun executes every experiment in quick mode and checks
// each produces at least one non-empty table. The P-experiments contain
// internal assertions (e.g. P5/P6 fail on any optimality gap), so a clean
// run re-verifies the paper's claims end to end.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", e.ID, tb.Title)
				}
				if tb.ASCII() == "" || tb.CSV() == "" {
					t.Fatalf("%s: unrenderable table", e.ID)
				}
			}
		})
	}
}

func TestP1GoldenContent(t *testing.T) {
	tables, err := registry["P1"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	circ := tables[0].ASCII()
	if !strings.Contains(circ, "b5 b0 b1") {
		t.Fatalf("circular λ0 adjacency missing wrap:\n%s", circ)
	}
	nonc := tables[1].ASCII()
	if !strings.Contains(nonc, "b0 b1") || strings.Contains(nonc, "b5 b0 b1") {
		t.Fatalf("non-circular λ0 adjacency wrong:\n%s", nonc)
	}
}

func TestP4GoldenContent(t *testing.T) {
	tables, err := registry["P4"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].ASCII()
	for _, want := range []string{"a3", "b2 b3 b4", "b2 b3 b4 b5 b0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("P4 missing %q:\n%s", want, out)
		}
	}
}

func TestS12GapMonotoneNonIncreasing(t *testing.T) {
	tables, err := registry["S12"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e9
	for _, row := range tables[0].Rows {
		var mean float64
		if _, err := fmt.Sscanf(row[3], "%g", &mean); err != nil {
			t.Fatalf("unparsable mean gap %q", row[3])
		}
		if mean > prev+1e-9 {
			t.Fatalf("mean gap not non-increasing:\n%s", tables[0].ASCII())
		}
		prev = mean
	}
}

func TestS13ThroughputMonotoneInFailureProbability(t *testing.T) {
	tables, err := registry["S13"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// S13a rows are failure probabilities ascending; every variant column
	// must show graceful degradation: throughput non-increasing as more
	// converters fail.
	thruTable := tables[0]
	cols := len(thruTable.Rows[0])
	for col := 1; col < cols; col++ {
		prev := 1e9
		for _, row := range thruTable.Rows {
			var thru float64
			if _, err := fmt.Sscanf(row[col], "%g", &thru); err != nil {
				t.Fatalf("unparsable throughput %q", row[col])
			}
			if thru > prev+1e-9 {
				t.Fatalf("column %d throughput not non-increasing:\n%s", col, thruTable.ASCII())
			}
			prev = thru
		}
	}
	// d=1 (column 1) never converts, so converter failures are free.
	if first, last := thruTable.Rows[0][1], thruTable.Rows[len(thruTable.Rows)-1][1]; first != last {
		t.Fatalf("d=1 throughput changed under converter faults: %s → %s\n%s", first, last, thruTable.ASCII())
	}
}

func TestS7FixedPriorityLeastFair(t *testing.T) {
	tables, err := registry["S7"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	jain := map[string]float64{}
	for _, row := range tables[0].Rows {
		var j float64
		if _, err := fmt.Sscanf(row[2], "%g", &j); err != nil {
			t.Fatalf("unparsable Jain %q", row[2])
		}
		jain[row[0]] = j
	}
	if jain["fixed-priority"] > jain["round-robin"] {
		t.Fatalf("fixed-priority Jain %v exceeds round-robin %v", jain["fixed-priority"], jain["round-robin"])
	}
}

func TestS1LossIsMonotoneInLoadForFixedVariant(t *testing.T) {
	tables, err := registry["S1"].Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// S1a rows are loads ascending; the "d=1 (none)" column (index 1)
	// should show loss growing with load at the top end.
	lossTable := tables[0]
	first := lossTable.Rows[0][1]
	last := lossTable.Rows[len(lossTable.Rows)-1][1]
	if first == last {
		t.Fatalf("loss did not change across loads: %s → %s\n%s", first, last, lossTable.ASCII())
	}
}

// TestBulkMakespanMatchesReference is the whole-run check S14's note
// refers to: on the sweep's demand shapes, the makespan under "exact" (the
// word-parallel kernel on circular conversion) equals the makespan under
// the scalar Table 3 reference, slot-by-slot greedy drain included.
func TestBulkMakespanMatchesReference(t *testing.T) {
	const n, k, total, seed = 4, 8, 4 * 8 * 10, 0x1234
	for _, dm := range []struct {
		name string
		d    [][]int
	}{
		{"uniform", traffic.RandomDemand(n, total, seed+0xb5)},
		{"hot-row", hotRowDemand(n, total, seed+0xb6)},
	} {
		for _, d := range []int{1, 3, 5} {
			e := (d - 1) / 2
			conv := wavelength.MustNew(wavelength.Circular, k, e, e)
			got, err := bulkMakespan(n, conv, "exact", seed, dm.d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bulkMakespan(n, conv, "break-first-available", seed, dm.d)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got == 0 {
				t.Fatalf("%s d=%d: exact drains in %d slots, the scalar reference in %d", dm.name, d, got, want)
			}
		}
	}
}
