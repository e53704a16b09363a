package main

import (
	"bytes"
	"testing"

	"wdmsched/internal/flagcheck"
)

// helpFlags runs the command with -h and parses the flag dump, so the
// assertions below pin exactly what an operator sees.
func helpFlags(t *testing.T) map[string]flagcheck.Flag {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	flags := flagcheck.Parse(errb.String())
	if len(flags) == 0 {
		t.Fatalf("no flags parsed from help output:\n%s", errb.String())
	}
	return flags
}

// TestFlagDefaults pins the simulator defaults to the values DESIGN.md
// documents; a drive-by flag change must update both.
func TestFlagDefaults(t *testing.T) {
	flags := helpFlags(t)
	want := map[string]string{
		"n":         "8",
		"k":         "16",
		"kind":      `"circular"`,
		"d":         "3",
		"scheduler": `"exact"`,
		"selector":  `"round-robin"`,
		"workload":  `"bernoulli"`,
		"load":      "0.8",
		"hold":      "1",
		"slots":     "10000",
		"seed":      "1",
		"classes":   "1",
		"erlangs":   "10",
		"arrivals":  "200000",
		"bundle":    `"wdmsim.incident.tgz"`,
	}
	for name, def := range want {
		f, ok := flags[name]
		if !ok {
			t.Errorf("flag -%s missing from help output", name)
			continue
		}
		if f.Default != def {
			t.Errorf("-%s default = %s, want %s", name, f.Default, def)
		}
	}
}

// TestFlagUsageNamesUnits requires every quantity-bearing flag to say
// what it is measured in (slots vs ms vs fraction vs count).
func TestFlagUsageNamesUnits(t *testing.T) {
	flags := helpFlags(t)
	quantity := []string{
		"n", "k", "d", "load", "hot", "hotfrac", "on", "off", "hold",
		"slots", "classes", "convfail", "convrepair", "darkfail",
		"darkrepair", "erlangs", "arrivals", "nodes", "netdrop",
		"netdup", "netdelay", "rpctimeout",
	}
	for _, name := range quantity {
		f, ok := flags[name]
		if !ok {
			t.Errorf("flag -%s missing from help output", name)
			continue
		}
		if !flagcheck.NamesUnit(f.Usage) {
			t.Errorf("-%s usage names no unit: %q", name, f.Usage)
		}
	}
}

// TestSchedulerHelpNamesConstruct: every scheduler name -h advertises is
// one the program accepts.
func TestSchedulerHelpNamesConstruct(t *testing.T) {
	if err := flagcheck.CheckSchedulerUsage(helpFlags(t)["scheduler"].Usage); err != nil {
		t.Fatal(err)
	}
}

// TestAdvertisedValuesAccepted: every value -h lists for a flag that
// takes one of a fixed set is one the program accepts.
func TestAdvertisedValuesAccepted(t *testing.T) {
	if err := flagcheck.CheckHelp(helpFlags(t), "kind", "selector", "workload"); err != nil {
		t.Fatal(err)
	}
}
