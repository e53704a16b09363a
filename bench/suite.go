package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"wdmsched/bench/stats"
)

// child runs one workload in a child process of this binary, so that every
// workload gets a fresh heap and its own peak RSS, and returns its result
// line. The child's report goes to out.
func child(o options, workload string, seed uint64, trace int, out, stderr io.Writer) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.jsonOut {
		args = append(args, "-json")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	out.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Fprintln(out)
	var res resultLine
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return res, nil
}

// runAll measures every workload, untraced then traced, each in its own
// sequential child process.
func runAll(o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(o, w.Name, o.seed, trace, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				code = 1
			}
		}
	}
	return code
}

// worse is by how much b is worse than a, as a share of a (negative when b
// is better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck is the A/A test the acceptance procedure applies: two sets of N
// untraced runs per workload, every run on another seed. Within each set a
// metric's interquartile range must stay within its bound of the median
// (setup_s excepted), and the second set's median must not be worse than
// the first's by more than the bound. The worst pairwise ratio is printed
// beside them.
func selfcheck(o options, stdout, stderr io.Writer) int {
	n := o.selfcheck
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				seed := o.seed + uint64(set*n+i)
				res, err := child(o, w.Name, seed, 0, io.Discard, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "# selfcheck %s: 2 sets of %d runs, seeds %d..%d, %g s each\n", w.Name, n, o.seed, o.seed+uint64(2*n-1), o.seconds)
		fmt.Fprintf(stdout, "%-22s %6s %12s %8s %12s %8s %8s %8s\n", "metric", "bound", "median A", "iqr A", "median B", "iqr B", "B vs A", "max/min")
		for _, d := range endToEnd {
			a, b := stats.Summarize(sets[0][d.Name]), stats.Summarize(sets[1][d.Name])
			shift := worse(a.Median, b.Median, d.Better)
			ratio := stats.WorstRatio(append(append([]float64(nil), sets[0][d.Name]...), sets[1][d.Name]...))
			verdict := ""
			if shift > d.Bound || (d.Name != "setup_s" && (a.IQRShare() > d.Bound || b.IQRShare() > d.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-22s %6.2f %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %8.3f%s\n",
				d.Name, d.Bound, a.Median, 100*a.IQRShare(), b.Median, 100*b.IQRShare(), 100*shift, ratio, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "bench: selfcheck: %d metrics outside their bounds\n", breaches)
		return 1
	}
	return 0
}
