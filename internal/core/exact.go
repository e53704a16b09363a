package core

import (
	"fmt"
	"strings"

	"wdmsched/internal/wavelength"
)

// NewExact returns the paper's exact scheduler for the given conversion
// model: FullRange for full range conversion (including circular models
// whose degree spans the ring), FirstAvailable for non-circular
// symmetrical conversion, and Break and First Available for circular
// symmetrical conversion — as its word-parallel kernel FastBFA, which
// produces the scalar BreakFirstAvailable's Result byte for byte (the
// scalar form stays constructible by name as the Table 3 reference).
func NewExact(conv wavelength.Conversion) (Scheduler, error) {
	switch {
	case conv.IsFullRange():
		return NewFullRange(conv)
	case conv.Kind() == wavelength.NonCircular:
		return NewFirstAvailable(conv)
	case conv.Kind() == wavelength.Circular:
		return NewFastBFA(conv)
	default:
		return nil, fmt.Errorf("core: no exact scheduler for %v", conv)
	}
}

// deltaBreakPattern is how SchedulerNames spells the one parameterized
// name; NewByName accepts any δ in [1, d] in its place.
const deltaBreakPattern = "delta-break(<δ>)"

// SchedulerNames lists every name NewByName accepts, in the order the
// command-line -scheduler help shows them. The last entry is the
// "delta-break(<δ>)" pattern; every other entry is literal.
func SchedulerNames() []string {
	return []string{
		"exact", "fast",
		"first-available",
		"break-first-available", "fast-break-first-available",
		"shortest-edge", "full-range", "hopcroft-karp",
		deltaBreakPattern,
	}
}

// SchedulerUsage is the -scheduler help text every command-line tool
// shows: what the flag selects, the accepted names, and which of them are
// the same scheduler.
func SchedulerUsage(what string) string {
	return what + ": " + strings.Join(SchedulerNames(), ", ") +
		"; exact is word-parallel Break and First Available on circular conversion" +
		" (fast and fast-break-first-available are aliases, break-first-available is the scalar Table 3 reference)" +
		" and First Available on non-circular"
}

// NewByName constructs a scheduler by its flag/table name (SchedulerNames
// lists them):
//
//   - "exact" and its alias "fast" dispatch by conversion model through
//     NewExact;
//   - "first-available" is Table 2, for non-circular conversion;
//   - "fast-break-first-available" is the word-parallel Table 3 kernel
//     "exact" builds on circular conversion, "break-first-available" its
//     scalar reference transcription;
//   - "shortest-edge" and "delta-break(<δ>)" are the Section IV-C single
//     break approximations, "full-range" the trivial d = k scheduler and
//     "hopcroft-karp" the general matching baseline.
func NewByName(name string, conv wavelength.Conversion) (Scheduler, error) {
	switch name {
	case "exact", "fast":
		return NewExact(conv)
	case "first-available":
		return NewFirstAvailable(conv)
	case "break-first-available":
		return NewBreakFirstAvailable(conv)
	case "fast-break-first-available":
		return NewFastBFA(conv)
	case "shortest-edge":
		return NewShortestEdge(conv)
	case "full-range":
		return NewFullRange(conv)
	case "hopcroft-karp":
		return NewBaseline(conv), nil
	}
	var delta int
	if n, err := fmt.Sscanf(name, "delta-break(%d)", &delta); err == nil && n == 1 {
		return NewDeltaBreak(conv, delta)
	}
	return nil, fmt.Errorf("core: unknown scheduler %q", name)
}

// BuildsExact reports whether NewByName(name, conv) constructs the same
// scheduler NewExact(conv) does, so callers that require the exact
// algorithm accept every name that selects it.
func BuildsExact(name string, conv wavelength.Conversion) bool {
	s, err := NewByName(name, conv)
	if err != nil {
		return false
	}
	exact, err := NewExact(conv)
	return err == nil && s.Name() == exact.Name()
}
