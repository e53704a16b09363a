package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wdmsched/internal/flagcheck"
	"wdmsched/internal/soak"
	"wdmsched/internal/traffic"
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

// TestFlagDefaults pins the soak-harness defaults DESIGN.md documents.
func TestFlagDefaults(t *testing.T) {
	flags := helpFlags(t)
	want := map[string]string{
		"engines":    `"sequential,distributed,cluster"`,
		"workload":   `"heavytail"`,
		"n":          "8",
		"k":          "16",
		"kind":       `"circular"`,
		"d":          "3",
		"scheduler":  `"exact"`,
		"load":       "0.7",
		"alpha":      "1.5",
		"slots":      "", // zero default: flag prints no suffix
		"time":       "",
		"resync":     "1000",
		"seed":       "1",
		"nodes":      "2",
		"rpctimeout": "25ms",
		"report":     `"wdmsoak.report.json"`,
		"bundle":     `"wdmsoak.incident.tgz"`,
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
// what it is measured in (slots vs ms vs fraction vs probability).
func TestFlagUsageNamesUnits(t *testing.T) {
	flags := helpFlags(t)
	quantity := []string{
		"n", "k", "d", "load", "alpha", "zipf", "users", "diurnal",
		"floor", "hold", "bulkunits", "slots", "time", "resync", "nodes",
		"convfail", "convrepair", "dark", "restore", "portdown", "portup",
		"tdrop", "tdup", "tdelay", "rpctimeout", "progress",
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

// TestAdvertisedValuesAccepted: every value -h lists for -kind,
// -scheduler and -workload is one the program accepts. The harness's own
// workload list is checked by building a one-engine harness on each.
func TestAdvertisedValuesAccepted(t *testing.T) {
	flags := helpFlags(t)
	if err := flagcheck.CheckHelp(flags, "kind", "scheduler"); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "empty.ctrace")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := traffic.NewTraceWriter(f, 2, 4)
	if err == nil {
		err = tw.Close()
	}
	if err := errors.Join(err, f.Close()); err != nil {
		t.Fatal(err)
	}
	err = flagcheck.CheckAdvertised(flags["workload"].Usage, func(w string) error {
		h, err := soak.New(soak.Config{
			Engines: []string{"sequential"}, Workload: w, N: 2, K: 4, Kind: "circular", D: 3,
			Scheduler: "exact", Load: 0.5, Alpha: 1.5, Hold: 1, BulkUnits: 8, Trace: tracePath,
			Slots: 1, Resync: 1,
		}, soak.Options{})
		if err != nil {
			return err
		}
		h.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
