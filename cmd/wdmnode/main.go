// Command wdmnode runs one cluster worker node: a stateless matching
// server that hosts the per-output-fiber schedulers for whatever ports a
// wdmsim -cluster controller assigns it, and answers batched per-slot
// schedule RPCs over TCP or a unix socket.
//
// Start two nodes and a clustered simulation against them:
//
//	wdmnode -listen 127.0.0.1:9301 &
//	wdmnode -listen 127.0.0.1:9302 &
//	wdmsim -cluster 127.0.0.1:9301,127.0.0.1:9302 -n 16 -k 16 -load 0.9
//
// Unix sockets: -listen unix:/tmp/wdmnode.sock (any address containing a
// slash is treated as a socket path).
//
// Observability: -http binds a telemetry endpoint exposing the node's own
// wdm_node_* metrics (Prometheus text at /metrics, JSON at /snapshot,
// expvar, pprof) plus the node-side span dump at /spans — fetch it after a
// traced run and merge with the controller's -spandump output:
//
//	wdmnode -listen 127.0.0.1:9301 -http 127.0.0.1:9391 &
//	wdmsim -cluster 127.0.0.1:9301 ... -spandump ctrl.spans
//	curl -s http://127.0.0.1:9391/spans > node0.spans
//	wdmtrace -merge ctrl.spans node0.spans
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"wdmsched/internal/cli"
	"wdmsched/internal/cluster"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run executes the command; extracted from main for testability.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:9301", "address to serve on: host:port for TCP, unix:/path for a unix socket")
		httpAddr = fs.String("http", "", "optional telemetry address serving wdm_node_* /metrics, /snapshot, /spans, expvar and pprof")
		spanCap  = fs.Int("spancap", 1<<14, "spans retained per lane for the /spans dump (newest win)")
		bundle   = fs.String("bundle", "wdmnode.incident.tgz", "flight-recorder bundle path (dumped on SIGQUIT without stopping the node; empty disables)")
		verbose  = fs.Bool("v", false, "log session lifecycle events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spanCap <= 0 {
		fmt.Fprintln(stderr, "wdmnode: -spancap must be positive")
		return 2
	}

	logger := log.New(stderr, "wdmnode: ", log.LstdFlags)
	network, address := wire.SplitAddr(*listen)
	ln, err := net.Listen(network, address)
	if err != nil {
		fmt.Fprintf(stderr, "wdmnode: %v\n", err)
		return 1
	}
	var cfg cluster.NodeConfig
	if *verbose {
		cfg.Logf = logger.Printf
	}
	// The registry and span tracer are always on — they feed the SIGQUIT
	// flight-recorder bundle even when no -http endpoint serves them.
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Spans = telemetry.NewSpanTracer(1, *spanCap)
	node := cluster.NewNode(cfg)
	var shuttingDown atomic.Bool
	if *httpAddr != "" {
		srv, err := telemetry.NewServer(*httpAddr, cfg.Telemetry)
		if err != nil {
			fmt.Fprintf(stderr, "wdmnode: %v\n", err)
			return 1
		}
		defer srv.Close()
		// /readyz goes not-ready the moment a shutdown signal lands, so
		// controllers probing the fleet stop assigning ports to a node
		// that is about to close; /healthz stays pure liveness.
		srv.SetReadiness(func() bool { return !shuttingDown.Load() })
		srv.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := node.WriteSpans(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		logger.Printf("telemetry on http://%s (metrics, snapshot, spans, pprof)", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		shuttingDown.Store(true)
		logger.Printf("received %v, shutting down", s)
		node.Close()
	}()

	// SIGQUIT dumps a flight-recorder bundle — the node's wdm_node_*
	// metric scrape plus its span rings — and the node keeps serving.
	dumps := 0
	defer cli.OnQuit(func() {
		path := *bundle
		if dumps > 0 {
			path = strings.TrimSuffix(path, ".tgz") + fmt.Sprintf("-%d.tgz", dumps)
		}
		dumps++
		if err := dumpNodeBundle(path, node, cfg.Telemetry); err != nil {
			logger.Printf("dumping flight-recorder bundle: %v", err)
			return
		}
		logger.Printf("flight-recorder bundle (still serving): %s", path)
	})()

	logger.Printf("serving on %s://%s", network, ln.Addr())
	if err := node.Serve(ln); err != nil {
		fmt.Fprintf(stderr, "wdmnode: %v\n", err)
		return 1
	}
	return 0
}

// dumpNodeBundle writes the node's observable state — its wdm_node_*
// metric scrape and span rings — as one incident bundle.
func dumpNodeBundle(path string, node *cluster.Node, reg *telemetry.Registry) error {
	if path == "" {
		return nil
	}
	w := telemetry.NewBundleWriter("wdmnode", "sigquit", 0)
	if err := w.AddFunc("node.metrics", func(out io.Writer) error {
		return telemetry.WritePrometheus(out, reg.Snapshot())
	}); err != nil {
		return err
	}
	if err := w.AddFunc("node.spans", node.WriteSpans); err != nil {
		return err
	}
	return w.WriteFile(path)
}
