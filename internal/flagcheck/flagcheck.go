// Package flagcheck parses the help text a flag.FlagSet prints so CLI
// tests can pin their flag sets golden-style: names, defaults and usage
// strings are asserted against what -h actually shows the user, catching
// drift between the documentation and the registered flags.
package flagcheck

import (
	"errors"
	"fmt"
	"strings"

	"wdmsched/internal/cli"
	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// Flag is one entry parsed from a flag.PrintDefaults dump.
type Flag struct {
	Name    string // without the leading dash
	Type    string // "int", "string", "duration", ... ("" for booleans)
	Usage   string // usage text with the "(default X)" suffix stripped
	Default string // the X from "(default X)", or ""
}

// Parse reads the output of flag.FlagSet.PrintDefaults (as produced by
// -h) and returns the flags keyed by name. The expected shape is
//
//	-name type
//	  	usage text (default X)
//
// with booleans omitting the type token and long usage texts possibly
// spanning several indented lines.
func Parse(help string) map[string]Flag {
	flags := make(map[string]Flag)
	var cur *Flag
	flush := func() {
		if cur == nil {
			return
		}
		cur.Usage = strings.TrimSpace(cur.Usage)
		if i := strings.LastIndex(cur.Usage, "(default "); i >= 0 && strings.HasSuffix(cur.Usage, ")") {
			cur.Default = cur.Usage[i+len("(default ") : len(cur.Usage)-1]
			cur.Usage = strings.TrimSpace(cur.Usage[:i])
		}
		flags[cur.Name] = *cur
		cur = nil
	}
	for _, line := range strings.Split(help, "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(line, "   ") {
			flush()
			f := Flag{}
			if sp := strings.IndexByte(name, ' '); sp >= 0 {
				f.Name, f.Type = name[:sp], name[sp+1:]
			} else {
				f.Name = name
			}
			cur = &f
			continue
		}
		if cur != nil && strings.TrimSpace(line) != "" {
			if cur.Usage != "" {
				cur.Usage += " "
			}
			cur.Usage += strings.TrimSpace(line)
		}
	}
	flush()
	return flags
}

// unitWords are the tokens that count as naming a unit or scale in a
// usage string. A flag carrying a quantity should mention one of these
// so the operator never guesses slots vs milliseconds vs fractions.
var unitWords = []string{
	"slot", "slots", "ms", "duration", "second", "seconds", "s)", "/s",
	"fraction", "probability", "p[", "count", "erlang", "requests",
	"channels", "fibers", "wavelength", "units", "bytes", "dimensionless",
	"index", "exponent",
}

// NamesUnit reports whether the usage string names a unit or scale.
func NamesUnit(usage string) bool {
	u := strings.ToLower(usage)
	for _, w := range unitWords {
		if strings.Contains(u, w) {
			return true
		}
	}
	return false
}

// AdvertisedNames extracts the value list a usage string of the form
// "what: a, b, c; remarks" advertises — the shape core.SchedulerUsage
// gives every -scheduler flag — or nil when the usage has no such list.
func AdvertisedNames(usage string) []string {
	_, list, ok := strings.Cut(usage, ": ")
	if !ok {
		return nil
	}
	list, _, _ = strings.Cut(list, ";")
	return strings.Split(list, ", ")
}

// CheckAdvertised applies accept to every value a usage string advertises
// (AdvertisedNames) and reports the first one it rejects. A usage that
// advertises fewer than two values fails too: a list that does not parse
// is the drift this check looks for.
func CheckAdvertised(usage string, accept func(string) error) error {
	names := AdvertisedNames(usage)
	if len(names) < 2 {
		return fmt.Errorf("flagcheck: usage advertises no value list: %q", usage)
	}
	for _, name := range names {
		if err := accept(name); err != nil {
			return fmt.Errorf("flagcheck: advertised value %q is rejected: %w", name, err)
		}
	}
	return nil
}

// Accept maps each shared flag whose usage lists values to the parser the
// commands run on its value.
var Accept = map[string]func(string) error{
	"scheduler": acceptScheduler,
	"kind": func(v string) error {
		_, err := wavelength.ParseKind(v)
		return err
	},
	"selector": func(v string) error {
		_, err := interconnect.New(interconnect.Config{
			N: 1, Conv: wavelength.MustNew(wavelength.Circular, 8, 1, 1), Selector: v,
		})
		return err
	},
	"workload": func(v string) error {
		w := cli.Workload{Name: v, Load: 0.5, HotFrac: 0.5, On: 8, Off: 8, Hold: 1}
		_, err := w.Generator(traffic.Config{N: 2, K: 4, Seed: 1})
		return err
	},
}

// CheckHelp checks the named flags of a parsed -h dump against Accept:
// each must be present and every value its usage lists accepted.
func CheckHelp(flags map[string]Flag, names ...string) error {
	for _, name := range names {
		f, ok := flags[name]
		if !ok {
			return fmt.Errorf("flagcheck: no -%s flag in the help output", name)
		}
		if err := CheckAdvertised(f.Usage, Accept[name]); err != nil {
			return fmt.Errorf("-%s: %w", name, err)
		}
	}
	return nil
}

// CheckSchedulerUsage is CheckAdvertised for a -scheduler usage string.
func CheckSchedulerUsage(usage string) error {
	return CheckAdvertised(usage, acceptScheduler)
}

// acceptScheduler constructs a scheduler name on a circular, a
// non-circular and a full range conversion model and accepts it when it
// builds on at least one of the three (several are specific to one kind).
// A "<δ>" placeholder stands for a breaking position and is tried as 1.
func acceptScheduler(name string) error {
	models := []wavelength.Conversion{
		wavelength.MustNew(wavelength.Circular, 8, 1, 1),
		wavelength.MustNew(wavelength.NonCircular, 8, 1, 1),
		wavelength.MustNew(wavelength.Full, 8, 0, 0),
	}
	concrete := strings.ReplaceAll(name, "<δ>", "1")
	var errs []error
	for _, conv := range models {
		if _, err := core.NewByName(concrete, conv); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == len(models) {
		return fmt.Errorf("builds on no model: %w", errors.Join(errs...))
	}
	return nil
}
