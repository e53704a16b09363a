package flagcheck

import (
	"bytes"
	"flag"
	"testing"
	"time"

	"wdmsched/internal/cli"
	"wdmsched/internal/core"
)

func TestParseRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Int("n", 8, "fibers per side")
	fs.Float64("load", 0.8, "offered load per channel, fraction in [0,1]")
	fs.Duration("time", 25*time.Millisecond, "wall-clock budget as a duration")
	fs.Bool("quiet", false, "suppress output")
	fs.String("kind", "circular", "conversion kind: circular, noncircular, full")
	fs.PrintDefaults()

	flags := Parse(buf.String())
	if len(flags) != 5 {
		t.Fatalf("parsed %d flags, want 5: %+v", len(flags), flags)
	}
	if f := flags["n"]; f.Type != "int" || f.Default != "8" || f.Usage != "fibers per side" {
		t.Errorf("n = %+v", f)
	}
	if f := flags["load"]; f.Default != "0.8" {
		t.Errorf("load = %+v", f)
	}
	if f := flags["time"]; f.Type != "duration" || f.Default != "25ms" {
		t.Errorf("time = %+v", f)
	}
	if f := flags["quiet"]; f.Type != "" || f.Default != "" {
		t.Errorf("quiet = %+v", f)
	}
	if f := flags["kind"]; f.Default != `"circular"` {
		t.Errorf("kind = %+v", f)
	}
}

func TestNamesUnit(t *testing.T) {
	for _, ok := range []string{
		"slots to simulate",
		"mean holding time in slots",
		"cluster RPC deadline as a duration",
		"offered load, fraction in [0,1]",
		"per-slot converter failure probability",
		"P[cluster frame dropped]",
		"aggregate offered load in requests/s",
	} {
		if !NamesUnit(ok) {
			t.Errorf("%q should name a unit", ok)
		}
	}
	for _, bad := range []string{
		"the load",
		"how long to wait",
	} {
		if NamesUnit(bad) {
			t.Errorf("%q should not count as naming a unit", bad)
		}
	}
}

// TestSchedulerUsageNamesConstruct holds the shared -scheduler help to
// what the program accepts: every name core.SchedulerUsage advertises must
// construct, after the usage has made the same trip through
// flag.PrintDefaults and Parse that an operator's -h makes. The help
// wdmserve used to print (names core.NewByName never knew) must fail.
func TestSchedulerUsageNamesConstruct(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.String("scheduler", "exact", core.SchedulerUsage("per-port scheduler"))
	fs.PrintDefaults()
	f, ok := Parse(buf.String())["scheduler"]
	if !ok || f.Default != `"exact"` {
		t.Fatalf("scheduler flag did not survive the round trip: %+v", f)
	}
	if err := CheckSchedulerUsage(f.Usage); err != nil {
		t.Fatal(err)
	}
	got := AdvertisedNames(f.Usage)
	want := core.SchedulerNames()
	if len(got) != len(want) {
		t.Fatalf("usage advertises %d names %q, SchedulerNames has %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("advertised name %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"per-port scheduler: exact|fa|bfa|fastfa|fastbfa",
		"per-port scheduler: exact, fa, bfa, fastfa, fastbfa",
		"per-port scheduling algorithm",
	} {
		if err := CheckSchedulerUsage(bad); err == nil {
			t.Errorf("CheckSchedulerUsage(%q) = nil, want an error", bad)
		}
	}
}

// TestSharedUsageValuesAccepted holds the shared -kind, -selector,
// -workload and -scheduler help to what the programs accept, after the
// round trip through flag.PrintDefaults and Parse; the help wdmserve used
// to print ("none", "rr") and lists that do not parse must fail.
func TestSharedUsageValuesAccepted(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	sw := cli.Switch{Kind: "circular", Scheduler: "exact", Selector: "random"}
	sw.Register(fs, "kind", "scheduler", "selector")
	wl := cli.Workload{Name: "bernoulli"}
	wl.Register(fs, "workload")
	fs.PrintDefaults()
	if err := CheckHelp(Parse(buf.String()), "kind", "scheduler", "selector", "workload"); err != nil {
		t.Fatal(err)
	}
	for flag, bad := range map[string][]string{
		"kind":     {"conversion kind: none|circular|noncircular|full", "conversion kind: none, circular, full"},
		"selector": {"input-fiber selector: random|rr", "tie-break: round-robin, rr"},
		"workload": {"workload: bernoulli, hotspot, heavytail"},
	} {
		for _, usage := range bad {
			if err := CheckAdvertised(usage, Accept[flag]); err == nil {
				t.Errorf("-%s usage %q passed, want an error", flag, usage)
			}
		}
	}
	if err := CheckHelp(map[string]Flag{}, "kind"); err == nil {
		t.Error("CheckHelp passed a help dump without -kind")
	}
}
