package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"wdmsched/internal/metrics"
)

// benchDoc mirrors the writeBenchJSON layout for reading saved records.
type benchDoc struct {
	Quick   bool         `json:"quick"`
	Slots   int          `json:"slots"`
	Results []benchGroup `json:"results"`
}

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestBenchFile finds the highest-numbered BENCH_<n>.json with n >= 1 in
// dir — the newest point of the perf-trajectory record after bench-save.
func latestBenchFile(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", 0
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n < 1 {
			continue
		}
		if n > bestN {
			best, bestN = e.Name(), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json with n >= 1 found; run `make bench-save` first")
	}
	return best, nil
}

func readBenchDoc(path string) (*benchDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// tableKey identifies a table across records: group ID plus index within
// the group. Titles embed sweep sizes, so they only need to match when the
// run shapes do — the diff tolerates mismatches with a note instead.
type tableKey struct {
	group string
	index int
}

func indexTables(doc *benchDoc) map[tableKey]*metrics.Table {
	out := map[tableKey]*metrics.Table{}
	for _, g := range doc.Results {
		for i, t := range g.Tables {
			out[tableKey{g.ID, i}] = t
		}
	}
	return out
}

// runDiff compares the latest benchmark record against the baseline and
// reports every duration cell's movement. A cell regresses when the new
// value exceeds the old by more than threshold (fractional) AND by more
// than minDelta in absolute terms — the floor keeps microsecond noise on
// fast rows from tripping a ratio gate. The "slot max" column is skipped
// (a single worst outlier is not a trend). Returns the number of
// regressions; the caller turns that into the exit code.
func runDiff(stdout io.Writer, basePath, againstPath string, threshold float64, minDelta time.Duration) (int, error) {
	if basePath == "" {
		basePath = "BENCH_0.json"
	}
	if againstPath == "" {
		var err error
		if againstPath, err = latestBenchFile("."); err != nil {
			return 0, err
		}
	}
	base, err := readBenchDoc(basePath)
	if err != nil {
		return 0, err
	}
	against, err := readBenchDoc(againstPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "baseline       %s (quick=%v)\n", basePath, base.Quick)
	fmt.Fprintf(stdout, "against        %s (quick=%v)\n", againstPath, against.Quick)
	fmt.Fprintf(stdout, "gate           regression = worse by >%.0f%% and >%v (slot max skipped)\n\n",
		100*threshold, minDelta)

	baseTables := indexTables(base)
	newTables := indexTables(against)
	keys := make([]tableKey, 0, len(newTables))
	for k := range newTables {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].index < keys[j].index
	})

	regressions, compared := 0, 0
	for _, k := range keys {
		nt := newTables[k]
		bt, ok := baseTables[k]
		if !ok {
			fmt.Fprintf(stdout, "note: table %s[%d] %q has no baseline; skipped\n", k.group, k.index, nt.Title)
			continue
		}
		r, c := diffTable(stdout, k, bt, nt, threshold, minDelta)
		regressions += r
		compared += c
	}
	for k, bt := range baseTables {
		if _, ok := newTables[k]; !ok {
			fmt.Fprintf(stdout, "note: baseline table %s[%d] %q missing from the new record\n", k.group, k.index, bt.Title)
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no comparable duration cells between %s and %s", basePath, againstPath)
	}
	if regressions == 0 {
		fmt.Fprintf(stdout, "\nbench-diff: %d cells compared, no regressions\n", compared)
	} else {
		fmt.Fprintf(stdout, "\nbench-diff: %d cells compared, %d REGRESSED\n", compared, regressions)
	}
	return regressions, nil
}

// diffTable compares one table pair cell by cell: rows matched by first
// cell, columns by header name, and only cells that parse as durations in
// both records. Returns (regressions, cells compared).
func diffTable(stdout io.Writer, k tableKey, bt, nt *metrics.Table, threshold float64, minDelta time.Duration) (int, int) {
	baseCol := map[string]int{}
	for i, h := range bt.Header {
		baseCol[h] = i
	}
	baseRow := map[string][]string{}
	for _, row := range bt.Rows {
		if len(row) > 0 {
			baseRow[row[0]] = row
		}
	}
	fmt.Fprintf(stdout, "%s[%d] %s\n", k.group, k.index, nt.Title)
	regressions, compared := 0, 0
	for _, row := range nt.Rows {
		if len(row) == 0 {
			continue
		}
		brow, ok := baseRow[row[0]]
		if !ok {
			fmt.Fprintf(stdout, "  note: row %q has no baseline; skipped\n", row[0])
			continue
		}
		for ci := 1; ci < len(row) && ci < len(nt.Header); ci++ {
			col := nt.Header[ci]
			if col == "slot max" {
				continue
			}
			bi, ok := baseCol[col]
			if !ok || bi >= len(brow) {
				continue
			}
			newD, errN := time.ParseDuration(row[ci])
			oldD, errO := time.ParseDuration(brow[bi])
			if errN != nil || errO != nil {
				continue // not a latency cell in both records
			}
			compared++
			delta := newD - oldD
			pct := 0.0
			if oldD > 0 {
				pct = 100 * float64(delta) / float64(oldD)
			}
			mark := ""
			if float64(newD) > float64(oldD)*(1+threshold) && delta > minDelta {
				mark = "  <-- REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  %-14s %-12s %12v -> %-12v %+7.1f%%%s\n",
				row[0], col, oldD, newD, pct, mark)
		}
	}
	return regressions, compared
}
