// Packetswitch: an optical packet switching scenario — the synchronous,
// slot-aligned workload the paper's introduction motivates. A recorded
// trace is replayed through four scheduler variants so differences are due
// to the algorithm alone, reproducing the shape of experiment S1/S2:
// exact limited-range scheduling approaches full range conversion even at
// small degree, and the shortest-edge approximation stays close to exact.
package main

import (
	"fmt"
	"log"

	wdm "wdmsched"
)

func main() {
	const (
		n     = 8
		k     = 16
		load  = 0.95
		slots = 3000
		seed  = 42
	)

	// Record one workload so all variants see identical arrivals.
	tcfg := wdm.TrafficConfig{N: n, K: k, Seed: seed}
	gen, err := wdm.NewBernoulliTraffic(tcfg, load)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := wdm.RecordTrace(gen, tcfg, slots)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d×%d switch, %d wavelengths, load %.2f, %d slots, %d packets\n\n",
		n, n, k, load, slots, trace.NumPackets())

	type variant struct {
		label     string
		kind      wdm.Kind
		degree    int
		scheduler string
	}
	variants := []variant{
		{"no conversion (d=1)", wdm.Circular, 1, "exact"},
		{"circular d=3, exact BFA", wdm.Circular, 3, "exact"},
		{"circular d=3, shortest-edge approx", wdm.Circular, 3, "shortest-edge"},
		{"non-circular d=3, first available", wdm.NonCircular, 3, "first-available"},
		{"full range", wdm.Full, 0, "full-range"},
	}

	fmt.Printf("%-38s %10s %10s %12s\n", "variant", "granted", "loss", "throughput")
	for _, v := range variants {
		var conv wdm.Conversion
		if v.kind == wdm.Full {
			conv, err = wdm.NewConversion(wdm.Full, k, 0, 0)
		} else {
			conv, err = wdm.NewSymmetricConversion(v.kind, k, v.degree)
		}
		if err != nil {
			log.Fatal(err)
		}
		sw, err := wdm.NewSwitch(wdm.SwitchConfig{
			N: n, Conv: conv, Scheduler: v.scheduler, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, err := sw.Run(trace.Replay(), slots)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s %10d %10.4f %12.4f\n",
			v.label, st.Granted.Value(), st.LossRate(), st.Throughput(n, k))
	}
	fmt.Println("\nexpected shape: d=1 worst, d=3 exact ≈ full range, approximation ≈ exact")
}
