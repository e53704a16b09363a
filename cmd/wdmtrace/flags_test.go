package main

import (
	"bytes"
	"testing"

	"wdmsched/internal/flagcheck"
)

// TestSchedulerHelpNamesConstruct: every scheduler name -h advertises is
// one the program accepts.
func TestSchedulerHelpNamesConstruct(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	f, ok := flagcheck.Parse(errb.String())["scheduler"]
	if !ok {
		t.Fatalf("no -scheduler flag in help output:\n%s", errb.String())
	}
	if err := flagcheck.CheckSchedulerUsage(f.Usage); err != nil {
		t.Fatal(err)
	}
}
