// Command wdmserve runs the grant service: a long-running scheduler that
// accepts connection requests from many concurrent clients over the grant
// wire protocol, batches them into slot-aligned scheduling rounds on a
// switch engine (sequential, distributed, or networked cluster), and
// streams grant/reject/retry verdicts back.
//
// Admission is per-tenant: a token bucket caps the sustained request rate
// and a bounded ingress queue absorbs bursts; when either pushes back the
// client gets an explicit RETRY-AFTER verdict instead of unbounded
// buffering. SIGTERM starts a graceful drain — stop admitting, flush the
// queued requests through the remaining slots, send every session its
// final ledger — and the process exits zero with the service ledger on
// stdout. SIGQUIT dumps a flight-recorder incident bundle mid-flight.
//
//	wdmserve -n 16 -k 16 -grant 127.0.0.1:9411 -listen 127.0.0.1:8080
//	wdmload  -server 127.0.0.1:9411 -conns 8 -rate 50000 -requests 200000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wdmsched/internal/cli"
	"wdmsched/internal/cluster"
	"wdmsched/internal/grant"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(stderr)
	f := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "wdmserve: %v\n", err)
		return 1
	}

	sh := &f.sh
	conv, err := sh.Validate()
	if err != nil {
		return fail(err)
	}

	def := grant.Policy{Class: *f.class, Rate: *f.rate, Burst: *f.burst, Queue: *f.queue}
	tenants, err := grant.ParsePolicies(*f.tenants, def)
	if err != nil {
		return fail(err)
	}

	// Engine selection mirrors wdmsim: in-process loopback cluster nodes
	// for -nodes, per-output goroutine schedulers for -distributed,
	// otherwise the sequential engine.
	engine := "sequential"
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	var ctrl *cluster.Controller
	if sh.Nodes > 0 {
		engine = "cluster"
		nodes, addrs, err := cluster.StartLoopback(sh.Nodes, nil)
		if err != nil {
			return fail(err)
		}
		for _, node := range nodes {
			closers = append(closers, func() { node.Close() })
		}
		ctrl, err = cluster.NewController(cluster.ControllerConfig{
			Addrs: addrs, N: sh.N, Conv: conv, Scheduler: sh.Scheduler,
			Seed: sh.Seed + 4, DialTimeout: 10 * time.Second,
		})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { ctrl.Close() })
	} else if sh.Distributed {
		engine = "distributed"
	}

	var reg *telemetry.Registry
	if *f.listen != "" {
		reg = telemetry.NewRegistry()
		if ctrl != nil {
			ctrl.RegisterTelemetry(reg)
		}
	}

	swCfg := sh.Config(conv)
	swCfg.PriorityClasses = *f.classes
	if ctrl != nil {
		swCfg.Remote = ctrl
	}
	svc, err := grant.NewService(grant.Config{
		Switch:      swCfg,
		Default:     def,
		Tenants:     tenants,
		SlotEvery:   *f.slotDur,
		Resync:      *f.resync,
		MaxSessions: *f.maxSess,
		Telemetry:   reg,
		BundlePath:  *f.bundle,
		Report:      *f.report,
		Tool:        "wdmserve",
		Stderr:      stderr,
		Meta: grant.Meta{
			Kind: sh.Kind, D: sh.D, Scheduler: sh.Scheduler,
			Selector: sh.Selector, Engine: engine, Classes: *f.classes,
		},
	})
	if err != nil {
		return fail(err)
	}

	if reg != nil {
		srv, err := telemetry.NewServer(*f.listen, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		// Drain-aware readiness: /readyz flips to 503 the moment SIGTERM
		// starts the drain, while /healthz stays a pure liveness probe.
		srv.SetReadiness(func() bool { return !svc.Draining() })
		// Exemplar drill-down for wdmtop and incident triage: the K
		// slowest requests per window with their full stage waterfalls.
		srv.HandleFunc("/exemplars", func(w http.ResponseWriter, _ *http.Request) {
			ring := svc.Recorder().Exemplars()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				WindowSlots int64                `json:"window_slots"`
				K           int                  `json:"k"`
				Exemplars   []telemetry.Exemplar `json:"exemplars"`
			}{ring.WindowSlots(), ring.K(), ring.Snapshot()})
		})
		fmt.Fprintf(stderr, "telemetry: listening on http://%s\n", srv.Addr())
	}

	network, address := wire.SplitAddr(*f.grantAddr)
	if network == "unix" {
		os.Remove(address)
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "grant: listening on %s\n", ln.Addr())

	// SIGTERM/SIGINT drain gracefully; SIGQUIT dumps the black box and
	// keeps serving.
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGQUIT)
	defer signal.Stop(sigc)
	go func() {
		for sig := range sigc {
			if sig == syscall.SIGQUIT {
				svc.RequestDump()
				continue
			}
			fmt.Fprintf(stderr, "wdmserve: %v: draining (no new admissions; flushing queued requests)\n", sig)
			svc.Drain()
		}
	}()

	serveErr := svc.Serve(ln)

	// The final ledger goes to stdout whether the run ended cleanly or
	// not: on a violation it is part of the forensics.
	out := struct {
		Engine string       `json:"engine"`
		Slots  int64        `json:"slots"`
		Ledger grant.Ledger `json:"ledger"`
	}{Engine: engine, Slots: svc.Slots(), Ledger: svc.Ledger()}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fail(err)
	}
	if serveErr != nil {
		return fail(serveErr)
	}
	return 0
}

// flags carries every parsed wdmserve option; kept as a struct so the
// flag-unit audit test can walk one authoritative definition.
type flags struct {
	sh                    cli.Switch
	classes               *int
	grantAddr, listen     *string
	tenants               *string
	rate, burst           *float64
	queue, class, maxSess *int
	slotDur               *time.Duration
	resync                *int64
	bundle, report        *string
}

func newFlagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("wdmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func bindFlags(fs *flag.FlagSet) *flags {
	f := &flags{
		sh:        cli.Switch{N: 16, K: 16, Kind: "circular", D: 3, Scheduler: "exact", Selector: "random", Seed: 1},
		classes:   fs.Int("classes", 1, "engine priority classes (count); tenant QoS classes clamp onto these"),
		grantAddr: fs.String("grant", "127.0.0.1:9411", "grant wire listen address (host:port, or a unix socket path)"),
		listen:    fs.String("listen", "", "serve live telemetry on this address (/metrics, /snapshot, /debug/pprof)"),
		tenants:   fs.String("tenants", "", `per-tenant admission policies "name:rate=R,burst=B,queue=Q,class=C;..." (rate in requests/s, burst and queue in requests)`),
		rate:      fs.Float64("rate", 100000, "default admission rate in requests/s (0 blocks tenants without a -tenants entry)"),
		burst:     fs.Float64("burst", 1024, "default token-bucket burst in requests"),
		queue:     fs.Int("queue", 4096, "default per-tenant ingress queue bound in requests"),
		class:     fs.Int("class", 0, "default tenant QoS class index (0 = highest priority)"),
		maxSess:   fs.Int("maxsessions", 1024, "concurrent client session limit (count)"),
		slotDur:   fs.Duration("slotdur", 0, "wall-clock duration of one scheduling slot, e.g. 100us (0 = run rounds as fast as requests arrive)"),
		resync:    fs.Int64("resync", 1024, "reconcile the grant ledger against the engine snapshot every this many slots"),
		bundle:    fs.String("bundle", "wdmserve.incident.tgz", "flight-recorder bundle path (dumped on SIGQUIT or invariant violation; empty disables)"),
		report:    fs.String("report", "", "write the incident report as JSON to this file on an invariant violation"),
	}
	f.sh.Register(fs, "n", "k", "kind", "d", "scheduler", "selector", "seed", "distributed", "nodes")
	return f
}
