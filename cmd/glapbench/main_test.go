package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestParseInts covers the one list parser behind every list flag, for each
// element type the flags use.
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
		got, err := parseList("sizes", tc.in, strconv.Atoi)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Fatalf("parseList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	floats, err := parseList("drops", "0, 0.1,0.25", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil || !slices.Equal(floats, []float64{0, 0.1, 0.25}) {
		t.Fatalf("float list = %v, %v", floats, err)
	}
	int64s, err := parseList("lats", "1,30,8589934592", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	if err != nil || !slices.Equal(int64s, []int64{1, 30, 1 << 33}) {
		t.Fatalf("int64 list = %v, %v", int64s, err)
	}
	// An empty list used to reach the experiments, which index it (a panic)
	// or default it; a bad item used to exit from inside the parser.
	for _, in := range []string{"", " ", ",", " , "} {
		if _, err := parseList("sizes", in, strconv.Atoi); err == nil || !strings.Contains(err.Error(), "-sizes") {
			t.Fatalf("parseList(%q): got %v, want an error naming -sizes", in, err)
		}
	}
	if _, err := parseList("ratios", "2,x", strconv.Atoi); err == nil || !strings.Contains(err.Error(), "-ratios") {
		t.Fatalf("bad item: got %v, want an error naming -ratios", err)
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

// TestRunF5WritesCSV runs Figure 5 alone with -csv: it must write its file,
// the rows it printed, and note on stderr the sizes it ignores. The file
// used to be written only when a grid experiment ran too.
func TestRunF5WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "f5", "-sizes", "16,24", "-ratios", "2", "-csv", dir}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(mustOpen(t, filepath.Join(dir, "figure5_convergence.csv"))).ReadAll()
	if err != nil || len(rows) < 2 || !slices.Equal(rows[0], []string{"round", "phase", "ratio2"}) {
		t.Fatalf("figure5_convergence.csv: %v, %v", rows, err)
	}
	var printed bytes.Buffer
	table{rows: rows}.print(&printed)
	if !strings.Contains(stdout.String(), printed.String()) {
		t.Fatalf("the CSV rows are not the printed ones:\n%s", stdout.String())
	}
	if want := "glapbench: -exp f5 runs -sizes 16 only; ignoring -sizes 24\n"; stderr.String() != want {
		t.Fatalf("stderr %q, want %q", stderr.String(), want)
	}
}

// TestRunRefusesCSVWithoutTable: a selection that builds no table has
// nothing to write, so -csv is refused before any run, naming the
// experiments selected, and no directory is made.
func TestRunRefusesCSVWithoutTable(t *testing.T) {
	for _, spec := range []string{"robust", "scenarios", "robust,scenarios"} {
		dir := filepath.Join(t.TempDir(), "csv")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-exp", spec, "-csv", dir, "-scen-out", filepath.Join(t.TempDir(), "s.json")}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-csv") || !strings.Contains(err.Error(), spec) {
			t.Fatalf("-exp %s -csv: got %v, want an error naming -csv and %s", spec, err, spec)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-exp %s -csv ran before refusing: %s", spec, stdout.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("-exp %s -csv made %s", spec, dir)
		}
	}
}

// TestFirstOnlyNote: f5 reads the first -sizes entry and robust the first
// -sizes and -ratios entries; each says so when given more, and nothing
// else does.
func TestFirstOnlyNote(t *testing.T) {
	byName := map[string]experiment{}
	for _, x := range experiments {
		byName[x.name] = x
	}
	lists := map[string][]int{"sizes": {16, 32, 64}, "ratios": {2, 3}}
	for name, want := range map[string]string{
		"f5":        "-exp f5 runs -sizes 16 only; ignoring -sizes 32,64",
		"robust":    "-exp robust runs -sizes 16 and -ratios 2 only; ignoring -sizes 32,64 and -ratios 3",
		"f6":        "",
		"t1":        "",
		"scenarios": "",
	} {
		if got := firstOnlyNote(byName[name], lists); got != want {
			t.Errorf("%s: note %q, want %q", name, got, want)
		}
	}
	one := map[string][]int{"sizes": {16}, "ratios": {2, 3}}
	if got := firstOnlyNote(byName["robust"], one); got != "-exp robust runs -ratios 2 only; ignoring -ratios 3" {
		t.Errorf("robust with one size: note %q", got)
	}
	if got := firstOnlyNote(byName["f5"], one); got != "" {
		t.Errorf("f5 with one size: note %q, want none", got)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
