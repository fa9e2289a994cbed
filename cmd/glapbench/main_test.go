package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"100", []int{100}},
		{"100,200,300", []int{100, 200, 300}},
		{" 1 , 2 ", []int{1, 2}},
		{"5,", []int{5}},
	}
	for _, tc := range cases {
		got := parseInts(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("parseInts(%q) = %v", tc.in, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("parseInts(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	names := func(xs []experiment) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.name)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct{ spec, want string }{
		{"all", "f5,f6,f7,f8,f9,f10,t1"},
		{" t1 , f6 ", "f6,t1"}, // table order, whitespace trimmed
		{"robust", "robust"},
		{"all,scenarios", "f5,f6,f7,f8,f9,f10,t1,scenarios"},
	} {
		picked, err := selectExperiments(tc.spec)
		if err != nil {
			t.Fatalf("selectExperiments(%q): %v", tc.spec, err)
		}
		if got := names(picked); got != tc.want {
			t.Fatalf("selectExperiments(%q) = %s, want %s", tc.spec, got, tc.want)
		}
	}
	// A retired or mistyped name is an error that lists every valid one; it
	// used to select nothing and exit 0 with no output.
	for _, spec := range []string{"scale", "f6,quiesce", "kernel", "learn", "", "f6,"} {
		_, err := selectExperiments(spec)
		if err == nil {
			t.Fatalf("selectExperiments(%q) accepted an unknown experiment", spec)
		}
		for _, x := range experiments {
			if !strings.Contains(err.Error(), x.name) {
				t.Fatalf("selectExperiments(%q): error %q does not list %q", spec, err, x.name)
			}
		}
	}
}

// TestExperimentTable checks the table's own invariants: unique names, none
// of them the reserved "all", and a help text that describes each.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	usage := expUsage()
	for _, x := range experiments {
		if seen[x.name] || x.name == "all" {
			t.Fatalf("experiment name %q duplicated or reserved", x.name)
		}
		seen[x.name] = true
		if !strings.Contains(usage, x.name+" (") {
			t.Fatalf("-exp help text does not describe %q: %s", x.name, usage)
		}
	}
}

// TestDocsNameOnlyKnownExperiments is the doc-drift guard: every `-exp <names>`
// the user-facing instructions show must be in the experiment table, and every
// BENCH_*.json README.md names must exist at the repository root, so a retired
// command or ledger cannot linger in them.
func TestDocsNameOnlyKnownExperiments(t *testing.T) {
	const root = "../../"
	expArg := regexp.MustCompile(`-exp[ =]+([A-Za-z0-9_,]+)`)
	ledger := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(root + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expArg.FindAllSubmatch(text, -1) {
			if _, err := selectExperiments(string(m[1])); err != nil {
				t.Errorf("%s shows %q: %v", doc, m[0], err)
			}
		}
		if doc != "README.md" {
			continue
		}
		for _, name := range ledger.FindAll(text, -1) {
			if _, err := os.Stat(root + string(name)); err != nil {
				t.Errorf("%s names %s, which is not at the repository root: %v", doc, name, err)
			}
		}
	}
}
