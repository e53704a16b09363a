package wdm_test

import (
	"bytes"
	"strings"
	"testing"

	wdm "wdmsched"
	"wdmsched/internal/async"
	"wdmsched/internal/traffic"
)

func TestQuickstartFlow(t *testing.T) {
	conv, err := wdm.NewConversion(wdm.Circular, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := wdm.NewScheduler("exact", conv)
	if err != nil {
		t.Fatal(err)
	}
	res := wdm.NewResult(conv.K())
	count := []int{2, 0, 1, 3, 0, 0, 1, 2}
	sched.Schedule(count, nil, res)
	if res.Size == 0 {
		t.Fatal("nothing granted")
	}
	if err := wdm.ValidateResult(conv, count, nil, res); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricConversionHelper(t *testing.T) {
	conv, err := wdm.NewSymmetricConversion(wdm.NonCircular, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Degree() != 3 {
		t.Fatalf("degree = %d", conv.Degree())
	}
	if _, err := wdm.NewSymmetricConversion(wdm.NonCircular, 6, 2); err == nil {
		t.Fatal("even degree accepted")
	}
}

func TestSchedulerNamesExposed(t *testing.T) {
	conv, _ := wdm.NewConversion(wdm.Circular, 6, 1, 1)
	for _, name := range []string{"exact", "break-first-available", "shortest-edge", "hopcroft-karp"} {
		if _, err := wdm.NewScheduler(name, conv); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := wdm.NewExactScheduler(conv); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSimulation(t *testing.T) {
	conv, _ := wdm.NewConversion(wdm.Circular, 8, 1, 1)
	sw, err := wdm.NewSwitch(wdm.SwitchConfig{N: 4, Conv: conv, Seed: 1, ValidateFabric: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := wdm.NewBernoulliTraffic(wdm.TrafficConfig{N: 4, K: 8, Seed: 2}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted.Value() == 0 {
		t.Fatal("no grants in end-to-end run")
	}
	if st.LossRate() < 0 || st.LossRate() > 1 {
		t.Fatalf("loss rate %v", st.LossRate())
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	cfg := wdm.TrafficConfig{N: 2, K: 4, Seed: 5}
	gen, _ := wdm.NewBernoulliTraffic(cfg, 0.5)
	tr, err := wdm.RecordTrace(gen, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := traffic.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.NumPackets() != tr.NumPackets() {
		t.Fatal("trace round trip mismatch")
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	tables, err := wdm.RunExperiment("P1", wdm.ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || !strings.Contains(tables[0].ASCII(), "λ0") {
		t.Fatal("P1 output unexpected")
	}
	if _, err := wdm.RunExperiment("nope", wdm.ExperimentConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPlotFacade(t *testing.T) {
	s := &wdm.Series{Name: "line"}
	s.Add(0, 0)
	s.Add(1, 1)
	out := wdm.PlotASCII(16, 5, s)
	if !strings.Contains(out, "line") || !strings.Contains(out, "*") {
		t.Fatalf("plot output wrong:\n%s", out)
	}
}

func TestAsyncFacade(t *testing.T) {
	conv, _ := wdm.NewSymmetricConversion(wdm.Circular, 8, 3)
	st, err := wdm.RunAsync(wdm.AsyncConfig{
		Conv: conv, ArrivalRate: 5, MeanHold: 1, Seed: 9, Policy: async.RandomFit,
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 2000 {
		t.Fatalf("offered = %d", st.Offered)
	}
	if p := st.BlockingProbability(); p < 0 || p > 1 {
		t.Fatalf("blocking %v", p)
	}
}

func TestAnalysisFacade(t *testing.T) {
	if _, err := wdm.FullRangeLoss(8, 16, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := wdm.NoConversionLoss(8, 16, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := wdm.ErlangB(-1, 1); err == nil {
		t.Fatal("bad ErlangB args accepted")
	}
}
