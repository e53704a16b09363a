package cli

import (
	"flag"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"

	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// TestRegisterKeepsDefaults: each flag defaults to the field value the
// command set, and parsing writes back into the struct.
func TestRegisterKeepsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sw := Switch{N: 16, K: 32, D: 5, Kind: "noncircular", Scheduler: "exact", Selector: "random", Seed: 9}
	sw.Register(fs, "n", "k", "kind", "d", "scheduler", "selector", "seed", "distributed", "nodes")
	wl := Workload{Name: "hotspot", Load: 0.7, HotFrac: 0.5, On: 8, Off: 8, Hold: 2}
	wl.Register(fs, "workload", "load", "hot", "hotfrac", "on", "off", "hold")
	for name, want := range map[string]string{
		"n": "16", "k": "32", "kind": "noncircular", "d": "5", "scheduler": "exact",
		"selector": "random", "seed": "9", "distributed": "false", "nodes": "0",
		"workload": "hotspot", "load": "0.7", "hot": "0", "hotfrac": "0.5",
		"on": "8", "off": "8", "hold": "2",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("-%s not registered", name)
		}
		if f.DefValue != want {
			t.Errorf("-%s default = %s, want %s", name, f.DefValue, want)
		}
	}
	if err := fs.Parse([]string{"-n", "4", "-distributed", "-load", "0.25"}); err != nil {
		t.Fatal(err)
	}
	if sw.N != 4 || !sw.Distributed || wl.Load != 0.25 || sw.K != 32 {
		t.Fatalf("parse did not write the fields: %+v %+v", sw, wl)
	}
}

// TestRegisterOnlyNamed: a command gets exactly the flags it asks for, and
// asking for one the layer does not define is a programming error.
func TestRegisterOnlyNamed(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var sw Switch
	sw.Register(fs, "n", "seed")
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 2 {
		t.Fatalf("registered %d flags, want 2", n)
	}
	for _, register := range []func(){
		func() { sw.Register(flag.NewFlagSet("a", flag.ContinueOnError), "slots") },
		func() { new(Workload).Register(flag.NewFlagSet("b", flag.ContinueOnError), "n") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("registering an unknown flag did not panic")
				}
			}()
			register()
		}()
	}
}

func TestValidate(t *testing.T) {
	sw := Switch{K: 8, D: 3, Kind: "circular"}
	conv, err := sw.Validate()
	if err != nil || conv != wavelength.MustNew(wavelength.Circular, 8, 1, 1) {
		t.Fatalf("Validate = %v, %v", conv, err)
	}
	sw.Kind, sw.D = "full", 4 // full range ignores the degree
	if conv, err := sw.Validate(); err != nil || conv.Kind() != wavelength.Full {
		t.Fatalf("full range: %v, %v", conv, err)
	}
	for _, bad := range []Switch{
		{K: 8, D: 3, Kind: "none"},
		{K: 8, D: 2, Kind: "circular"},
		{K: 8, D: 3, Kind: "circular", Distributed: true, Nodes: 2},
	} {
		if _, err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	sw = Switch{N: 4, Scheduler: "fast", Selector: "random", Seed: 3, Distributed: true}
	cfg := sw.Config(conv)
	if cfg.N != 4 || cfg.Conv != conv || cfg.Scheduler != "fast" || cfg.Selector != "random" || cfg.Seed != 3 || !cfg.Distributed {
		t.Fatalf("Config = %+v", cfg)
	}
}

// TestGenerator: every listed workload builds and draws arrivals with the
// -hold mean; an unlisted one is rejected.
func TestGenerator(t *testing.T) {
	for _, name := range Workloads {
		w := Workload{Name: name, Load: 0.9, HotFrac: 0.5, On: 4, Off: 1, Hold: 3, Hot: 1}
		gen, err := w.Generator(traffic.Config{N: 4, K: 8, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var pkts []traffic.Packet
		for s := 0; s < 50 && len(pkts) == 0; s++ {
			pkts = gen.Generate(s, pkts[:0])
		}
		if len(pkts) == 0 {
			t.Fatalf("%s: no arrivals in 50 slots", name)
		}
	}
	w := Workload{Name: "heavytail", Load: 0.5}
	if _, err := w.Generator(traffic.Config{N: 4, K: 8}); err == nil || !strings.Contains(err.Error(), "heavytail") {
		t.Fatalf("unknown workload: %v", err)
	}
}

func TestOnQuit(t *testing.T) {
	got := make(chan struct{}, 1)
	stop := OnQuit(func() { got <- struct{}{} })
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGQUIT did not reach the hook")
	}
}
