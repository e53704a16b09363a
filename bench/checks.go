package main

import (
	"embed"
	"fmt"
	"strconv"
	"strings"

	"wdmsched/internal/grant"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
)

// checks counts the operations a run attempted and the ones that failed.
// A run is correct only when nothing failed; the messages say what did.
type checks struct {
	attempted int64
	failed    int64
	messages  []string
}

func (c *checks) ops(n int64) { c.attempted += n }

// fail books n failed operations (at least one) under one message.
func (c *checks) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	c.failed += n
	if len(c.messages) < 32 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// failAll books one failure per problem.
func (c *checks) failAll(problems []string) {
	for _, p := range problems {
		c.fail(1, "%s", p)
	}
}

func (c *checks) failShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// checkSnapshots compares two engines fed the same slot stream at every
// window-pass boundary both reached: the snapshots must be identical and
// each must conserve packets.
func checkSnapshots(refName string, ref []interconnect.Snapshot, name string, got []interconnect.Snapshot) []string {
	var problems []string
	n := min(len(ref), len(got))
	if n == 0 {
		return []string{fmt.Sprintf("%s vs %s: no common pass boundary to compare", name, refName)}
	}
	for i := 0; i < n; i++ {
		if d := ref[i].Diff(&got[i]); d != "" {
			problems = append(problems, fmt.Sprintf("%s diverges from %s at pass %d: %s", name, refName, i+1, d))
			break
		}
	}
	for i := range got {
		if c := got[i].Conserved(); c != "" {
			problems = append(problems, fmt.Sprintf("%s not conserved at pass %d: %s", name, i+1, c))
			break
		}
	}
	return problems
}

// checkLifecycle holds a simulator lifecycle to the sequential engine's
// counters on the same slots.
func checkLifecycle(offered, granted int64, want interconnect.Snapshot) []string {
	if offered == want.Offered && granted == want.Granted {
		return nil
	}
	return []string{fmt.Sprintf("sim: lifecycle granted %d of %d, the sequential engine granted %d of %d on the same slots",
		granted, offered, want.Granted, want.Offered)}
}

// checkFallback: a port-slot the controller scheduled locally is a remote
// operation that failed.
func checkFallback(items int64) []string {
	if items == 0 {
		return nil
	}
	return []string{fmt.Sprintf("cluster: %d port-slots fell back to local scheduling", items)}
}

// verdictTally counts terminal verdicts on the client side.
type verdictTally struct {
	Granted, Rejected, Retried uint64
}

func (t *verdictTally) note(v grant.Verdict) {
	switch {
	case v.Granted():
		t.Granted++
	case v.Rejected():
		t.Rejected++
	case v.Retry():
		t.Retried++
	}
}

// idTracker verifies that every submitted request id comes back in exactly
// one verdict. Ids are dense, starting at 0.
type idTracker struct {
	seen      []uint8
	duplicate int64
	unknown   int64
}

func (t *idTracker) submitted(n int) { t.seen = append(t.seen, make([]uint8, n)...) }

func (t *idTracker) verdict(id uint64) {
	switch {
	case id >= uint64(len(t.seen)):
		t.unknown++
	case t.seen[id] != 0:
		t.duplicate++
	default:
		t.seen[id] = 1
	}
}

func (t *idTracker) problems() []string {
	var lost int64
	for _, s := range t.seen {
		if s == 0 {
			lost++
		}
	}
	var p []string
	if lost > 0 {
		p = append(p, fmt.Sprintf("grant: %d requests never got a verdict", lost))
	}
	if t.duplicate > 0 {
		p = append(p, fmt.Sprintf("grant: %d verdicts repeated an id", t.duplicate))
	}
	if t.unknown > 0 {
		p = append(p, fmt.Sprintf("grant: %d verdicts for ids never submitted", t.unknown))
	}
	return p
}

// checkGrantLedger holds the grant service to its accounting: the server
// and session ledgers balance, both equal what the client saw on the wire,
// and a closed loop with admission wide open never sees a RETRY.
func checkGrantLedger(server, session grant.Ledger, tally verdictTally, submitted uint64, closedLoop bool) []string {
	var p []string
	if !server.Balanced() {
		p = append(p, fmt.Sprintf("grant: server ledger does not balance: %+v", server))
	}
	if !session.Balanced() {
		p = append(p, fmt.Sprintf("grant: session ledger does not balance: %+v", session))
	}
	for _, l := range []struct {
		name string
		l    grant.Ledger
	}{{"server", server}, {"session", session}} {
		if l.l.Submitted != submitted || l.l.Granted != tally.Granted ||
			l.l.Rejected != tally.Rejected || l.l.Retried != tally.Retried {
			p = append(p, fmt.Sprintf("grant: %s ledger %+v disagrees with client tally %+v of %d submitted",
				l.name, l.l, tally, submitted))
		}
	}
	if closedLoop && tally.Retried > 0 {
		p = append(p, fmt.Sprintf("grant: %d RETRY verdicts in a closed loop with admission wide open", tally.Retried))
	}
	return p
}

// golden holds the paper-sweep tables rendered at the commit that defined
// the benchmark; a sweep pass must reproduce them byte for byte.
//
//go:embed golden
var golden embed.FS

func goldenPath(id string, quick bool) string {
	mode := "full"
	if quick {
		mode = "quick"
	}
	return "golden/" + mode + "/" + id + ".txt"
}

func renderTables(tables []*metrics.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.ASCII())
		b.WriteString("\n")
	}
	return b.String()
}

// checkGolden compares a rendered experiment with its golden file.
func checkGolden(id string, quick bool, rendered string) []string {
	want, err := golden.ReadFile(goldenPath(id, quick))
	if err != nil {
		return []string{fmt.Sprintf("sweep %s: no golden table: %v", id, err)}
	}
	if rendered == string(want) {
		return nil
	}
	gl, wl := strings.Split(rendered, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			return []string{fmt.Sprintf("sweep %s: line %d differs from golden: got %q want %q", id, i+1, gl[i], wl[i])}
		}
	}
	return []string{fmt.Sprintf("sweep %s: %d lines, golden has %d", id, len(gl), len(wl))}
}

// checkMakespanBound reads the S14 tables: no schedule may beat the
// open-shop lower bound ⌈max(row sum, column sum)/k⌉ (Aslanidis & Birmpilis).
func checkMakespanBound(tables []*metrics.Table) []string {
	var p []string
	rows := 0
	for _, t := range tables {
		mk, lb := -1, -1
		for i, h := range t.Header {
			switch h {
			case "makespan":
				mk = i
			case "LB":
				lb = i
			}
		}
		if mk < 0 || lb < 0 {
			continue
		}
		for _, r := range t.Rows {
			m, err1 := strconv.Atoi(r[mk])
			l, err2 := strconv.Atoi(r[lb])
			if err1 != nil || err2 != nil {
				p = append(p, fmt.Sprintf("S14: unreadable makespan row %v", r))
				continue
			}
			rows++
			if m < l {
				p = append(p, fmt.Sprintf("S14: makespan %d beats the open-shop lower bound %d in row %v", m, l, r))
			}
		}
	}
	if rows == 0 {
		p = append(p, "S14: no makespan/LB rows found")
	}
	return p
}
