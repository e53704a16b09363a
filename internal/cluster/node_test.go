package cluster

import (
	"net"
	"sync"
	"testing"

	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// buildConfigPayload hand-encodes a config frame for a session hosting
// the given ports of an n×n interconnect with k wavelengths (circular,
// e=f=1, exact scheduling).
func buildConfigPayload(n, k int, ports []int) []byte {
	b := wire.PutU32(nil, uint32(n))
	b = append(b, byte(wavelength.Circular))
	b = wire.PutU32(b, uint32(k))
	b = wire.PutU32(b, 1)
	b = wire.PutU32(b, 1)
	b = wire.PutString(b, "exact")
	b = wire.PutU32(b, uint32(len(ports)))
	for _, p := range ports {
		b = wire.PutU32(b, uint32(p))
	}
	return b
}

// buildSchedulePayload encodes one v2 schedule frame: each ports[i] asks
// with counts[i] and no occupancy; mask, when non-nil, applies to every
// item. The trace context (run, span, t0) is synthetic but well-formed.
func buildSchedulePayload(seq, slot uint64, k int, ports []int, counts [][]int, mask []byte) []byte {
	b := wire.PutU64(nil, seq)
	b = wire.PutU64(b, slot)
	b = wire.PutU64(b, 0xABCD)    // run ID
	b = wire.PutU64(b, seq<<20)   // span ID
	b = wire.PutI64(b, 123456789) // t0
	b = wire.PutU32(b, uint32(len(ports)))
	occupied := make([]bool, k)
	for i, p := range ports {
		b = wire.PutU32(b, uint32(p))
		for _, c := range counts[i] {
			b = wire.PutU16(b, uint16(c))
		}
		b = appendOccupied(b, occupied)
		if mask != nil {
			b = append(b, 1)
			b = append(b, mask...)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// newTestSession builds a configured session without a network: the
// transport wraps a closed pipe end that handleSchedule never touches.
func newTestSession(t testing.TB, n, k int, ports []int) *session {
	t.Helper()
	c1, c2 := net.Pipe()
	c1.Close()
	c2.Close()
	s := &session{tr: wire.NewConn(c1, &proto), logf: func(string, ...any) {}}
	if err := s.configure(buildConfigPayload(n, k, ports)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNodeScheduleHotPathAllocs asserts the acceptance criterion that a
// zero-fault cluster run adds no allocations to the node-side scheduling
// hot path: after the first (buffer-growing) call, handleSchedule must not
// allocate — masked or not, and with node telemetry and span tracing both
// enabled (the observability must be free on the hot path).
func TestNodeScheduleHotPathAllocs(t *testing.T) {
	const n, k = 8, 8
	counts := [][]int{
		{2, 0, 1, 3, 0, 1, 0, 2},
		{0, 1, 0, 0, 2, 0, 4, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{3, 0, 0, 0, 0, 2, 0, 1},
	}
	mask := make([]byte, k)
	mask[2] = 1 // converter failed
	mask[5] = 2 // dark
	for _, mode := range []struct {
		name      string
		telemetry bool
	}{
		{"plain", false},
		{"telemetry+spans", true},
	} {
		s := newTestSession(t, n, k, []int{0, 2, 4, 6})
		if mode.telemetry {
			node := NewNode(NodeConfig{
				Telemetry: telemetry.NewRegistry(),
				Spans:     telemetry.NewSpanTracer(1, 1<<10),
			})
			s.node, s.spans = node, node.cfg.Spans
			// Re-run the configure-time wiring the test session skipped.
			s.busy = make([]*metrics.Counter, len(s.ports))
			for i, p := range s.ports {
				s.busy[i] = node.portBusy(p)
			}
			s.spans.EnsureLanes(1 + len(s.ports))
			s.timed = true
		}
		for _, tc := range []struct {
			name    string
			payload []byte
		}{
			{"unmasked", buildSchedulePayload(1, 10, k, []int{0, 2, 4, 6}, counts, nil)},
			{"masked", buildSchedulePayload(2, 11, k, []int{0, 2, 4, 6}, counts, mask)},
		} {
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				var err error
				if _, err = s.handleSchedule(tc.payload); err != nil { // warm buffers
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(100, func() {
					_, err = s.handleSchedule(tc.payload)
				})
				if err != nil {
					t.Fatal(err)
				}
				if allocs != 0 {
					t.Fatalf("handleSchedule allocates %.1f objects per call, want 0", allocs)
				}
				if mode.telemetry && s.spans.Emitted() == 0 {
					t.Fatal("span tracer saw no spans")
				}
			})
		}
	}
}

// TestNodeScheduleRejectsMalformed spot-checks the decode validation:
// truncation, unknown ports, repeats and trailing bytes must error, never
// panic or compute garbage.
func TestNodeScheduleRejectsMalformed(t *testing.T) {
	const n, k = 4, 6
	s := newTestSession(t, n, k, []int{0, 2})
	good := buildSchedulePayload(1, 1, k, []int{0, 2},
		[][]int{{1, 0, 0, 2, 0, 0}, {0, 3, 0, 0, 0, 1}}, nil)
	if _, err := s.handleSchedule(good); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0xff),
		"unknown port": buildSchedulePayload(1, 1, k, []int{1},
			[][]int{{1, 0, 0, 0, 0, 0}}, nil),
		"repeated port": buildSchedulePayload(1, 1, k, []int{0, 0},
			[][]int{{1, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0}}, nil),
		"bad mask state": buildSchedulePayload(1, 1, k, []int{0},
			[][]int{{1, 0, 0, 0, 0, 0}}, []byte{9, 0, 0, 0, 0, 0}),
	}
	for name, payload := range cases {
		if _, err := s.handleSchedule(payload); err == nil {
			t.Errorf("%s: malformed payload accepted", name)
		}
	}
}

// TestConfigRejectsMalformed covers the configure-side validation.
func TestConfigRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"zero ports":   buildConfigPayload(0, 4, nil),
		"bad port":     buildConfigPayload(4, 4, []int{7}),
		"dup port":     buildConfigPayload(4, 4, []int{1, 1}),
		"trailing":     append(buildConfigPayload(4, 4, []int{1}), 0),
		"huge k":       buildConfigPayload(4, maxWavelengths+1, []int{1}),
		"unknown name": nil,
	}
	bad := buildConfigPayload(4, 4, []int{1})
	// Patch the scheduler name length region to an unknown name by
	// rebuilding with a bogus name.
	b := wire.PutU32(nil, 4)
	b = append(b, byte(wavelength.Circular))
	b = wire.PutU32(b, 4)
	b = wire.PutU32(b, 1)
	b = wire.PutU32(b, 1)
	b = wire.PutString(b, "no-such-scheduler")
	b = wire.PutU32(b, 1)
	b = wire.PutU32(b, 1)
	cases["unknown name"] = b
	_ = bad
	for name, payload := range cases {
		c1, _ := net.Pipe()
		c1.Close()
		s := &session{tr: wire.NewConn(c1, &proto), logf: func(string, ...any) {}}
		if err := s.configure(payload); err == nil {
			t.Errorf("%s: malformed config accepted", name)
		}
	}
}

// fuzzSessionPool hands out one configured session per fuzz worker,
// serialized: handleSchedule mutates session state.
var (
	fuzzMu   sync.Mutex
	fuzzSess *session
)

// FuzzNodeSchedule throws arbitrary bytes at the schedule decoder; the
// only acceptable outcomes are a decoded batch or an error — never a
// panic, whatever the wire delivers.
func FuzzNodeSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildSchedulePayload(1, 1, 6, []int{0, 2},
		[][]int{{1, 0, 0, 2, 0, 0}, {0, 3, 0, 0, 0, 1}}, nil))
	f.Add(buildSchedulePayload(2, 9, 6, []int{2},
		[][]int{{9, 9, 9, 9, 9, 9}}, []byte{0, 1, 2, 0, 1, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		if fuzzSess == nil {
			c1, _ := net.Pipe()
			c1.Close()
			s := &session{tr: wire.NewConn(c1, &proto), logf: func(string, ...any) {}}
			if err := s.configure(buildConfigPayload(4, 6, []int{0, 2})); err != nil {
				t.Fatal(err)
			}
			fuzzSess = s
		}
		fuzzSess.handleSchedule(data)
	})
}

// FuzzNodeConfig fuzzes the configure decoder the same way.
func FuzzNodeConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildConfigPayload(4, 6, []int{0, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c1, _ := net.Pipe()
		c1.Close()
		s := &session{tr: wire.NewConn(c1, &proto), logf: func(string, ...any) {}}
		s.configure(data)
	})
}
