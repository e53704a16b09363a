// Command wdmload drives a wdmserve grant server with open-loop traffic:
// N client connections submit connection requests on a fixed arrival
// schedule (Poisson or heavy-tailed) regardless of how fast verdicts come
// back, which is what makes the offered load an input rather than an
// outcome. Every request terminates in exactly one verdict — grant,
// reject, or retry — and the tool fails loudly if any request is lost or
// the server's session ledger disagrees with the client-side tally.
//
// The report (-o) is a wdmbench-style structured document: grant-latency
// quantiles (p50/p99/p999), goodput, and the verdict breakdown at the
// offered load. Validate or diff it with `wdmbench -validate` / `-diff`.
//
//	wdmload -server 127.0.0.1:9411 -conns 8 -rate 50000 -requests 200000 -o wdmload_report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"wdmsched/internal/cli"
	"wdmsched/internal/grant"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server   = fs.String("server", "127.0.0.1:9411", "grant server address (host:port, or a unix socket path)")
		tenant   = fs.String("tenant", "wdmload", "tenant name presented at the session handshake")
		conns    = fs.Int("conns", 4, "client connections, each its own session (count)")
		rate     = fs.Float64("rate", 10000, "aggregate offered load in requests/s across all connections")
		requests = fs.Int("requests", 50000, "total request budget across all connections (count)")
		arrivals = fs.String("arrivals", "poisson", "interarrival process: poisson|heavytail")
		alpha    = fs.Float64("alpha", 1.5, "Pareto tail exponent for -arrivals heavytail (dimensionless, > 1)")
		hold     = fs.Float64("hold", 2, "mean connection duration in slots (geometric)")
		seed     = fs.Uint64("seed", 1, "PRNG seed (dimensionless)")
		timeout  = fs.Duration("timeout", 60*time.Second, "overall run deadline as a duration for collecting every verdict")
		output   = fs.String("o", "", "write the structured load report as JSON to this file")
		quiet    = fs.Bool("quiet", false, "suppress the summary table on stdout")
		telemURL = fs.String("telemetry", "", "wdmserve telemetry base URL; after the run, scrape /snapshot and report server-observed stage means next to the client latency")
		skewMax  = fs.Duration("skewmax", 0, "warn on stderr when client-minus-server mean latency skew exceeds this duration (0 disables the check)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "wdmload: %v\n", err)
		return 1
	}
	if *conns < 1 || *requests < 1 {
		return fail(fmt.Errorf("-conns and -requests must be at least 1"))
	}
	if *rate <= 0 {
		return fail(fmt.Errorf("-rate must be positive (requests/s)"))
	}
	if *arrivals != "poisson" && *arrivals != "heavytail" {
		return fail(fmt.Errorf("unknown -arrivals %q (want poisson or heavytail)", *arrivals))
	}
	if *arrivals == "heavytail" && *alpha <= 1 {
		return fail(fmt.Errorf("-alpha must exceed 1 so the heavy-tailed interarrival mean is finite"))
	}

	lat := metrics.NewDurationHistogram()
	settled := metrics.NewDurationHistogram()
	perConn := *requests / *conns
	extra := *requests % *conns

	type connResult struct {
		tally  verdictTally
		ledger grant.Ledger
		err    error
	}
	results := make([]connResult, *conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		budget := perConn
		if i < extra {
			budget++
		}
		if budget == 0 {
			continue
		}
		wg.Add(1)
		go func(i, budget int) {
			defer wg.Done()
			results[i].tally, results[i].ledger, results[i].err = driveConn(connConfig{
				server: *server, tenant: *tenant,
				budget: budget, rate: *rate / float64(*conns),
				arrivals: *arrivals, alpha: *alpha, hold: *hold,
				seed: *seed + uint64(i)*1000003, timeout: *timeout,
			}, lat, settled)
		}(i, budget)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total verdictTally
	var ledger grant.Ledger
	for i := range results {
		if err := results[i].err; err != nil {
			return fail(fmt.Errorf("connection %d: %w", i, err))
		}
		total.add(results[i].tally)
		l := results[i].ledger
		ledger.Submitted += l.Submitted
		ledger.Admitted += l.Admitted
		ledger.Granted += l.Granted
		ledger.Rejected += l.Rejected
		ledger.Retried += l.Retried
	}

	// Zero-lost accounting: every submitted request must have terminated
	// in exactly one verdict, and the server's ledgers must agree with
	// what the clients saw on the wire.
	if got := total.terminal(); got != *requests {
		return fail(fmt.Errorf("lost requests: submitted %d, verdicts %d", *requests, got))
	}
	if ledger.Submitted != uint64(*requests) ||
		ledger.Granted != uint64(total.granted) ||
		ledger.Rejected != uint64(total.rejected) ||
		ledger.Retried != uint64(total.retried) {
		return fail(fmt.Errorf("server ledger %+v disagrees with client tally %+v", ledger, total))
	}

	goodput := float64(total.granted) / elapsed.Seconds()
	table := metrics.NewTable(
		fmt.Sprintf("Grant-service open-loop load — %d conns, %.0f req/s offered, %s arrivals", *conns, *rate, *arrivals),
		"metric", "value")
	table.AddRow("offered load (req/s)", fmt.Sprintf("%.1f", *rate))
	table.AddRow("achieved goodput (grants/s)", fmt.Sprintf("%.1f", goodput))
	table.AddRowf("wall time", elapsed.Round(time.Millisecond))
	table.AddRowf("submitted", *requests)
	table.AddRowf("granted", total.granted)
	table.AddRowf("rejected", total.rejected)
	table.AddRowf("retried", total.retried)
	table.AddRowf("grant latency p50", lat.Quantile(0.50))
	table.AddRowf("grant latency p99", lat.Quantile(0.99))
	table.AddRowf("grant latency p999", lat.Quantile(0.999))
	table.AddRowf("grant latency max", lat.Max())
	table.AddNote("Open loop: the arrival schedule does not wait for verdicts, so offered load is an input.")
	table.AddNote("Latency is request submission to verdict receipt, measured client side.")
	table.AddNote("Every request terminated in exactly one verdict; the server ledger matched the client tally.")

	// Server-observed stage breakdown: scrape the wdmserve /snapshot and
	// put its per-stage means next to the client view of the same
	// requests. The client clock includes the network round trip and the
	// scheduler's inter-stage gaps; the server stage sum does not, so the
	// skew (client minus server) is the unattributed remainder — large
	// positive skew means time is being lost outside the stage clocks.
	if *telemURL != "" {
		st, err := fetchServerStages(*telemURL, *timeout)
		if err != nil {
			return fail(fmt.Errorf("scraping -telemetry: %w", err))
		}
		clientMean := settled.Mean()
		table.AddRowf("client settled mean (granted+contention)", clientMean)
		for _, name := range st.names {
			table.AddRowf("server stage "+name+" mean", st.mean[name])
		}
		table.AddRowf("server lifecycle mean (stage sum)", st.total)
		skew := clientMean - st.total
		table.AddRowf("client-server skew", skew)
		table.AddNote("Server stage means are cumulative since wdmserve start; on a fresh server they cover exactly this run.")
		if *skewMax > 0 && skew > *skewMax {
			fmt.Fprintf(stderr, "wdmload: warning: client-server skew %v exceeds -skewmax %v (network + unattributed gaps)\n",
				skew, *skewMax)
		}
	}

	if !*quiet {
		fmt.Fprint(stdout, table.ASCII())
	}
	if *output != "" {
		if err := writeReport(*output, table); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeReport emits the wdmbench-compatible structured document so the
// load report plugs into `wdmbench -validate` and `wdmbench -diff`.
func writeReport(path string, table *metrics.Table) error {
	type group struct {
		ID     string           `json:"id"`
		Title  string           `json:"title"`
		Tables []*metrics.Table `json:"tables"`
	}
	doc := struct {
		Quick   bool    `json:"quick"`
		Results []group `json:"results"`
	}{
		Results: []group{{ID: "grant-load", Title: "Grant-service open-loop load", Tables: []*metrics.Table{table}}},
	}
	return cli.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

// verdictTally counts terminal verdicts client side.
type verdictTally struct {
	granted, rejected, retried int
}

func (t *verdictTally) add(o verdictTally) {
	t.granted += o.granted
	t.rejected += o.rejected
	t.retried += o.retried
}

func (t *verdictTally) terminal() int { return t.granted + t.rejected + t.retried }

type connConfig struct {
	server, tenant string
	budget         int
	rate           float64 // this connection's offered load, requests/s
	arrivals       string
	alpha, hold    float64
	seed           uint64
	timeout        time.Duration
}

// fetchServerStages scrapes a wdmserve telemetry /snapshot and reduces
// the wdm_grant_stage_seconds series to per-stage means plus their sum
// (the mean server-side request lifecycle).
type serverStages struct {
	names []string
	mean  map[string]time.Duration
	total time.Duration
}

func fetchServerStages(base string, timeout time.Duration) (*serverStages, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(strings.TrimRight(base, "/") + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot: %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /snapshot: %w", err)
	}
	st := &serverStages{mean: map[string]time.Duration{}}
	byName := map[string]time.Duration{}
	for _, m := range snap.Metrics {
		if m.Name != "wdm_grant_stage_seconds" || m.Count == 0 {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == "stage" {
				byName[l.Value] = time.Duration(m.Sum / float64(m.Count) * float64(time.Second))
			}
		}
	}
	for _, name := range telemetry.GrantStageNames {
		d, ok := byName[name]
		if !ok {
			continue
		}
		st.names = append(st.names, name)
		st.mean[name] = d
		st.total += d
	}
	if len(st.names) == 0 {
		return nil, fmt.Errorf("no wdm_grant_stage_seconds series at %s (is this a wdmserve -listen endpoint with traffic?)", base)
	}
	return st, nil
}

// driveConn runs one open-loop session: a submitter goroutine fires
// requests on the arrival schedule while the reader tallies verdicts and
// observes latency; the session ends with bye → ledger. settled gets
// only the round-settled verdicts (granted + rejected-contention) — the
// population the server's stage clocks observe — so the client and
// server means are comparable.
func driveConn(cfg connConfig, lat, settled *metrics.DurationHistogram) (verdictTally, grant.Ledger, error) {
	var tally verdictTally
	var ledger grant.Ledger
	c, err := grant.Dial(cfg.server, cfg.tenant)
	if err != nil {
		return tally, ledger, err
	}
	defer c.Close()

	rng := traffic.NewRNG(cfg.seed)
	n, k := c.N, c.K

	// Interarrival sampler, seconds. The heavy-tailed process keeps the
	// same mean as the Poisson one so -rate means the same offered load
	// either way: Pareto(alpha) on [1,inf) has mean alpha/(alpha-1).
	nextInter := func() float64 { return rng.Exp(cfg.rate) }
	if cfg.arrivals == "heavytail" {
		scale := (1 / cfg.rate) / (cfg.alpha / (cfg.alpha - 1))
		nextInter = func() float64 { return rng.Pareto(cfg.alpha) * scale }
	}

	// sentNS[id] is the submission timestamp for latency measurement;
	// request IDs are sequential per session. mu orders the submitter's
	// stamps against the reader's lookups (the wire round trip is the
	// real ordering, but the race detector cannot see through a socket).
	var mu sync.Mutex
	sentNS := make([]int64, cfg.budget)

	var readErr error
	done := make(chan struct{})
	subErrc := make(chan error, 1)

	go func() {
		defer close(done)
		c.SetRecvDeadline(time.Now().Add(cfg.timeout))
		seen := 0
		byeSent := false
		for {
			ev, err := c.Recv()
			if err != nil {
				readErr = fmt.Errorf("recv after %d/%d verdicts: %w", seen, cfg.budget, err)
				return
			}
			now := time.Now().UnixNano()
			mu.Lock()
			for _, nt := range ev.Notices {
				if nt.ID < uint64(len(sentNS)) && sentNS[nt.ID] > 0 {
					d := time.Duration(now - sentNS[nt.ID])
					lat.Observe(d)
					if nt.Verdict == grant.VerdictGranted || nt.Verdict == grant.VerdictRejected {
						settled.Observe(d)
					}
				}
				switch {
				case nt.Verdict.Granted():
					tally.granted++
				case nt.Verdict.Rejected():
					tally.rejected++
				case nt.Verdict.Retry():
					tally.retried++
				}
				seen++
			}
			if ev.Ledger != nil {
				ledger = *ev.Ledger
				mu.Unlock()
				return
			}
			allSeen := seen >= cfg.budget
			mu.Unlock()
			if allSeen && !byeSent {
				// Every verdict collected: close the session and wait
				// for the server's ledger frame.
				if err := c.Bye(); err != nil {
					readErr = err
					return
				}
				byeSent = true
			}
		}
	}()

	// Open-loop submitter: requests fire on the precomputed schedule no
	// matter how the verdicts are going. Arrivals due at the same tick
	// batch into one frame.
	go func() {
		start := time.Now()
		next := 0.0 // scheduled arrival time, seconds since start
		id := 0
		batch := make([]grant.Req, 0, 256)
		for id < cfg.budget {
			now := time.Since(start).Seconds()
			if next > now {
				time.Sleep(time.Duration((next - now) * float64(time.Second)))
				now = time.Since(start).Seconds()
			}
			batch = batch[:0]
			for id < cfg.budget && next <= now && len(batch) < cap(batch) {
				dur := rng.Geometric(cfg.hold)
				if dur < 1 {
					dur = 1
				}
				if dur > 1<<15 {
					dur = 1 << 15
				}
				batch = append(batch, grant.Req{
					ID:   uint64(id),
					In:   uint32(rng.Intn(n)),
					Wave: uint16(rng.Intn(k)),
					Dest: uint32(rng.Intn(n)),
					Dur:  uint16(dur),
				})
				id++
				next += nextInter()
			}
			if len(batch) == 0 {
				continue
			}
			stamp := time.Now().UnixNano()
			mu.Lock()
			for _, q := range batch {
				sentNS[q.ID] = stamp
			}
			mu.Unlock()
			if err := c.Submit(batch); err != nil {
				subErrc <- fmt.Errorf("submit at request %d: %w", id, err)
				return
			}
		}
	}()

	select {
	case <-done:
	case err := <-subErrc:
		return tally, ledger, err
	case <-time.After(cfg.timeout):
		return tally, ledger, fmt.Errorf("timed out after %v waiting for verdicts", cfg.timeout)
	}
	if readErr != nil {
		return tally, ledger, readErr
	}
	mu.Lock()
	defer mu.Unlock()
	if !ledger.Balanced() {
		return tally, ledger, fmt.Errorf("session ledger does not balance: %+v", ledger)
	}
	return tally, ledger, nil
}
