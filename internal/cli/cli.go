// Package cli is the flag layer the commands share. The switch shape and
// engine flags (-n, -k, -kind, -d, -scheduler, -selector, -seed,
// -distributed, -nodes) and the arrival-generator flags (-workload, -load,
// -hot, -hotfrac, -on, -off, -hold) are each defined here once, with the
// calling command's defaults; so are the builders that turn them into a
// conversion model, a switch configuration and a generator, the SIGQUIT
// hook that asks a flight recorder for a dump, and the helper the
// commands write their output files with.
//
// A usage string that lists accepted values takes the list from the code
// that parses them, so -h never advertises a value the command rejects.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// Switch holds the switch shape and engine flags. A command sets the
// fields to its defaults, then calls Register with the flags it has.
type Switch struct {
	N, K, D     int
	Kind        string
	Scheduler   string
	Selector    string
	Seed        uint64
	Distributed bool
	Nodes       int
}

// Register defines the named flags on fs, bound to s's fields and
// defaulting to their current values. It panics on a name that is not a
// Switch flag.
func (s *Switch) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "n":
			fs.IntVar(&s.N, name, s.N, "switch size in fibers (N input and N output)")
		case "k":
			fs.IntVar(&s.K, name, s.K, "wavelength channels per fiber")
		case "kind":
			fs.StringVar(&s.Kind, name, s.Kind, "conversion kind: "+strings.Join(wavelength.KindNames(), ", "))
		case "d":
			fs.IntVar(&s.D, name, s.D, "conversion degree in channels (odd; ignored for -kind full)")
		case "scheduler":
			fs.StringVar(&s.Scheduler, name, s.Scheduler, core.SchedulerUsage("per-port scheduler"))
		case "selector":
			fs.StringVar(&s.Selector, name, s.Selector, "input-fiber tie-break: "+strings.Join(interconnect.SelectorNames, ", "))
		case "seed":
			fs.Uint64Var(&s.Seed, name, s.Seed, "random seed (dimensionless)")
		case "distributed":
			fs.BoolVar(&s.Distributed, name, s.Distributed, "distributed engine: output fibers scheduled in parallel on a worker crew")
		case "nodes":
			fs.IntVar(&s.Nodes, name, s.Nodes, "spawn this many in-process loopback cluster nodes and schedule over them (count)")
		default:
			panic("cli: no switch flag -" + name)
		}
	}
}

// Validate is the check the switch flags pass before a run: the engine
// flags against each other, then the shape, returned as the conversion
// model it names.
func (s *Switch) Validate() (wavelength.Conversion, error) {
	if s.Distributed && s.Nodes > 0 {
		return wavelength.Conversion{}, errors.New("-distributed and -nodes are mutually exclusive")
	}
	return wavelength.NewNamed(s.Kind, s.K, s.D)
}

// Config is the interconnect configuration the flags name on conv; the
// caller sets the fields no shared flag covers.
func (s *Switch) Config(conv wavelength.Conversion) interconnect.Config {
	return interconnect.Config{
		N: s.N, Conv: conv,
		Scheduler: s.Scheduler, Selector: s.Selector,
		Seed: s.Seed, Distributed: s.Distributed,
	}
}

// Workload holds the arrival-generator flags. A command sets the fields
// to its defaults, then calls Register with the flags it has.
type Workload struct {
	Name    string
	Load    float64
	Hot     int
	HotFrac float64
	On, Off float64
	Hold    float64
}

// Workloads lists the -workload values Generator accepts.
var Workloads = []string{"bernoulli", "hotspot", "bursty"}

// Register defines the named flags on fs, bound to w's fields and
// defaulting to their current values. It panics on a name that is not a
// Workload flag.
func (w *Workload) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "workload":
			fs.StringVar(&w.Name, name, w.Name, "arrival process: "+strings.Join(Workloads, ", ")+"; bursty takes -on/-off instead of -load")
		case "load":
			fs.Float64Var(&w.Load, name, w.Load, "offered load per input channel, fraction in [0,1]")
		case "hot":
			fs.IntVar(&w.Hot, name, w.Hot, "hot output fiber index (hotspot)")
		case "hotfrac":
			fs.Float64Var(&w.HotFrac, name, w.HotFrac, "fraction of the traffic sent to the hot fiber (hotspot)")
		case "on":
			fs.Float64Var(&w.On, name, w.On, "mean burst length in slots (bursty)")
		case "off":
			fs.Float64Var(&w.Off, name, w.Off, "mean idle length in slots (bursty)")
		case "hold":
			fs.Float64Var(&w.Hold, name, w.Hold, "mean connection holding time in slots")
		default:
			panic("cli: no workload flag -" + name)
		}
	}
}

// Generator builds the arrival process the flags name on cfg's shape and
// seed, with -hold as the mean holding time.
func (w *Workload) Generator(cfg traffic.Config) (traffic.Generator, error) {
	cfg.Hold.Mean = w.Hold
	switch w.Name {
	case "bernoulli":
		return traffic.NewBernoulli(cfg, w.Load)
	case "hotspot":
		return traffic.NewHotspot(cfg, w.Load, w.Hot, w.HotFrac)
	case "bursty":
		return traffic.NewBursty(cfg, w.On, w.Off)
	}
	return nil, fmt.Errorf("unknown workload %q", w.Name)
}

// WriteFile creates path and streams write's output into it; the file is
// closed on every path, and a failed close is an error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OnQuit calls fn on every SIGQUIT until stop is called: the hook through
// which a running command is asked for a flight-recorder bundle without
// being stopped.
func OnQuit(fn func()) (stop func()) {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-quit:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(quit)
		close(done)
	}
}
