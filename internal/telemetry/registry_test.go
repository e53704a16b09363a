package telemetry

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmsched/internal/metrics"
)

func TestRegistryKindsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(7)
	var g metrics.Gauge
	g.Set(2.5)
	h := metrics.NewHistogram(4)
	h.Observe(1)
	h.Observe(1)
	h.Observe(9) // overflow
	dh := metrics.NewDurationHistogram()
	dh.Observe(100 * time.Nanosecond)
	var w metrics.Welford
	w.Observe(1)
	w.Observe(3)

	r.Counter("t_counter", "a counter", nil, &c)
	r.Gauge("t_gauge", "a gauge", nil, &g)
	r.Histogram("t_hist", "a histogram", nil, h)
	r.DurationHistogram("t_lat", "a latency histogram", nil, dh)
	r.Welford("t_mean", "a summary", nil, &w)
	r.CounterFunc("t_fn", "computed", []Label{{Key: "x", Value: "1"}}, func() int64 { return 42 })

	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	snap := r.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name <= snap[j].Name }) {
		t.Error("snapshot not sorted by name")
	}
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if m := byName["t_counter"]; m.Value != 7 || m.Kind != "counter" {
		t.Errorf("counter sample = %+v", m)
	}
	if m := byName["t_gauge"]; m.Value != 2.5 || m.Kind != "gauge" {
		t.Errorf("gauge sample = %+v", m)
	}
	if m := byName["t_hist"]; m.Count != 3 || m.Sum != 11 || len(m.Buckets) != 1 ||
		m.Buckets[0] != (Bucket{Upper: 1, Count: 2}) {
		t.Errorf("histogram sample = %+v", m)
	}
	if m := byName["t_lat"]; m.Count != 1 || len(m.Buckets) != 1 {
		t.Errorf("duration histogram sample = %+v", m)
	}
	if m := byName["t_mean"]; m.Value != 2 || m.Count != 2 {
		t.Errorf("summary sample = %+v", m)
	}
	if m := byName["t_fn"]; m.Value != 42 || len(m.Labels) != 1 || m.Labels[0].Value != "1" {
		t.Errorf("func counter sample = %+v", m)
	}
}

// TestRegistryBeforeSnapshot: a hook runs once per pass, ahead of every
// collector, and passes are serialized so the collectors of one pass read
// only what their own pass prepared (plain memory here — run under -race).
func TestRegistryBeforeSnapshot(t *testing.T) {
	r := NewRegistry()
	var live metrics.Counter
	var view, hooks int64
	r.BeforeSnapshot(func() { hooks++; view = live.Value() })
	for _, name := range []string{"t_a", "t_b", "t_c"} {
		r.CounterFunc(name, "reads the prepared view", nil, func() int64 { return view })
	}
	var wg sync.WaitGroup
	const scrapers, passes = 4, 200
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < passes; i++ {
				live.Inc()
				ms := r.Snapshot()
				if ms[0].Value != ms[1].Value || ms[1].Value != ms[2].Value {
					t.Errorf("one pass read %v, %v and %v from the view", ms[0].Value, ms[1].Value, ms[2].Value)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hooks != scrapers*passes {
		t.Errorf("hook ran %d times over %d passes", hooks, scrapers*passes)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	r.Counter("dup", "", []Label{{Key: "a", Value: "b"}}, &c)
	// Same name with different labels is fine.
	r.Counter("dup", "", []Label{{Key: "a", Value: "c"}}, &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Counter("dup", "", []Label{{Key: "a", Value: "b"}}, &c)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(3)
	h := metrics.NewHistogram(3)
	h.Observe(0)
	h.Observe(2)
	h.Observe(5) // overflow
	r.Counter("p_total", "counted \"things\"\nacross lines", nil, &c)
	r.Histogram("p_sizes", "sizes", []Label{{Key: "srv", Value: "a"}}, h)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE p_total counter",
		"p_total 3",
		`# HELP p_total counted "things"\nacross lines`,
		"# TYPE p_sizes histogram",
		`p_sizes_bucket{srv="a",le="0"} 1`,
		`p_sizes_bucket{srv="a",le="2"} 2`,    // cumulative
		`p_sizes_bucket{srv="a",le="+Inf"} 3`, // includes overflow
		`p_sizes_sum{srv="a"} 7`,
		`p_sizes_count{srv="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestWriteJSONOmitsInfinity(t *testing.T) {
	r := NewRegistry()
	h := metrics.NewHistogram(2)
	h.Observe(0)
	h.Observe(100) // overflow — must not appear as +Inf in JSON
	r.Histogram("j_hist", "", nil, h)
	var sb strings.Builder
	if err := WriteJSON(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Inf") {
		t.Errorf("JSON output contains infinity: %s", sb.String())
	}
	if !strings.Contains(sb.String(), `"count": 2`) {
		t.Errorf("JSON output missing total count: %s", sb.String())
	}
}
