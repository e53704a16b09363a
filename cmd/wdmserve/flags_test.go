package main

import (
	"bytes"
	"testing"

	"wdmsched/internal/flagcheck"
)

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

// TestFlagDefaults pins the grant-server defaults DESIGN.md §15
// documents.
func TestFlagDefaults(t *testing.T) {
	flags := helpFlags(t)
	want := map[string]string{
		"n":           "16",
		"k":           "16",
		"kind":        `"circular"`,
		"d":           "3",
		"scheduler":   `"exact"`,
		"selector":    `"random"`,
		"seed":        "1",
		"classes":     "1",
		"nodes":       "", // zero defaults print no suffix
		"grant":       `"127.0.0.1:9411"`,
		"rate":        "100000",
		"burst":       "1024",
		"queue":       "4096",
		"class":       "",
		"maxsessions": "1024",
		"slotdur":     "",
		"resync":      "1024",
		"bundle":      `"wdmserve.incident.tgz"`,
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
// what it is measured in (requests/s vs requests vs slots vs duration).
func TestFlagUsageNamesUnits(t *testing.T) {
	flags := helpFlags(t)
	quantity := []string{
		"n", "k", "d", "seed", "classes", "nodes", "tenants", "rate",
		"burst", "queue", "class", "maxsessions", "slotdur", "resync",
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

// TestBadFlagExitCodes pins the exit-code contract: 2 for parse errors,
// 1 for semantic validation failures.
func TestBadFlagExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: run = %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-distributed", "-nodes", "2"}, &out, &errb); code != 1 {
		t.Errorf("-distributed with -nodes: run = %d, want 1\nstderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kind", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("bad -kind: run = %d, want 1\nstderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-tenants", "t:rate=x"}, &out, &errb); code != 1 {
		t.Errorf("bad -tenants: run = %d, want 1\nstderr: %s", code, errb.String())
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
	if err := flagcheck.CheckHelp(helpFlags(t), "kind", "selector"); err != nil {
		t.Fatal(err)
	}
}
