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

// TestFlagUsageNamesUnits requires every quantity-bearing flag to say
// what it is measured in (slots vs fraction vs count).
func TestFlagUsageNamesUnits(t *testing.T) {
	flags := helpFlags(t)
	quantity := []string{
		"n", "k", "d", "seed", "load", "hot", "hotfrac", "on", "off",
		"hold", "slots", "cap",
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
