package main

import (
	"strings"
	"testing"
)

// TestExperimentTable pins the -exp surface: names are unique, and the
// generated usage text offers every experiment plus "all".
func TestExperimentTable(t *testing.T) {
	usage := expUsage()
	names := []string{"all"}
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		names = append(names, e.name)
	}
	for _, name := range names {
		if !strings.Contains(usage, "\n"+name+" ") {
			t.Errorf("-exp usage does not list %q:\n%s", name, usage)
		}
	}
}

// TestFastExperimentsPassTheirVerdicts runs the quickest paper
// experiments end to end through the table: each returns an error when
// its verdict contradicts the paper.
func TestFastExperimentsPassTheirVerdicts(t *testing.T) {
	want := map[string]bool{"table1": true, "s1": true}
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		delete(want, e.name)
		if err := e.run(); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
	}
	for name := range want {
		t.Errorf("experiment %q missing from the table", name)
	}
}
