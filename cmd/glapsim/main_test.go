package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunRefusesHostileFlags: flag values the run cannot honour are refused
// with an error naming the flag, before anything runs or any file is
// written.
func TestRunRefusesHostileFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(tracePath, []byte("vm,round,cpu,mem\n0,0,0.5,0.5\n1,0,0.25,0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qPath := filepath.Join(dir, "q.json")
	cases := []struct {
		name, flag string
		args       []string
	}{
		{"zero PMs with a trace", "-pms", []string{"-policy", "none", "-pms", "0", "-trace", tracePath}},
		{"zero row period", "-every", []string{"-pms", "10", "-rounds", "5", "-every", "0"}},
		{"save without pre-training", "-save-qtables", []string{"-policy", "grmp", "-save-qtables", qPath}},
		{"save after load", "-save-qtables", []string{"-load-qtables", filepath.Join(dir, "absent.json"), "-save-qtables", qPath}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("run(%q) = %v, want an error naming %s", c.args, err, c.flag)
			}
			if stdout.Len() != 0 {
				t.Fatalf("run(%q) printed rows:\n%s", c.args, stdout.String())
			}
			if _, err := os.Stat(qPath); !os.IsNotExist(err) {
				t.Fatalf("run(%q) wrote %s", c.args, qPath)
			}
		})
	}
}

// TestRunRows runs a small simulation and checks the CSV header and the rows
// -every selects: every third round plus the last.
func TestRunRows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-policy", "none", "-pms", "4", "-ratio", "2", "-rounds", "7", "-every", "3"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 || lines[0] != "round,active_pms,overloaded_pms,cum_migrations,migration_energy_j" {
		t.Fatalf("unexpected output:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "policy=none pms=4 vms=8 rounds=7") {
		t.Fatalf("summary missing:\n%s", stderr.String())
	}
}

// TestRunSummaryReportsConsensus: a GLAP run's summary line names the
// pre-training round from which every PM held identical tables, and prints
// no convergence figure, which a run never measures.
func TestRunSummaryReportsConsensus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-pms", "6", "-ratio", "2", "-rounds", "3"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\nGLAP:  pre-training learn 500 rounds \+ aggregate 200 rounds \(identical tables from round (\d+)\)\n`).FindStringSubmatch(stderr.String())
	if m == nil || strings.Contains(stderr.String(), "convergence") {
		t.Fatalf("summary line missing or reports an unmeasured convergence:\n%s", stderr.String())
	}
	if r, _ := strconv.Atoi(m[1]); r < 500 || r >= 700 {
		t.Fatalf("consensus round %d outside the aggregation phase [500, 700)", r)
	}
}

// TestRunSummaryPrintsDecisionHistogram: a GLAP run's summary ends with the
// Algorithm-3 histogram, one line per bucket, split at the end of the first
// quarter of the run; glap-async's lines add its two message classes, and a
// baseline prints none.
func TestRunSummaryPrintsDecisionHistogram(t *testing.T) {
	for _, c := range []struct {
		policy string
		want   []string
	}{
		{"glap", []string{`\n  rounds 0-4: none=\d+ empty=\d+ shed=\d+ \| no-offer=\d+ in-veto=\d+ cap-veto=\d+ migrate-err=\d+ migrated=\d+\n`,
			`\n  rounds 5-19: none=\d+ .* migrated=\d+\n`}},
		{"glap-async", []string{`\n  rounds 0-4: .* migrated=\d+ offer-timeout=\d+ lost=\d+\n`, `\n  rounds 5-19: .* lost=\d+\n`}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-policy", c.policy, "-pms", "6", "-ratio", "2", "-rounds", "20"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		for _, re := range c.want {
			if !regexp.MustCompile(re).MatchString(stderr.String()) {
				t.Fatalf("%s: no line matching %q in:\n%s", c.policy, re, stderr.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-policy", "grmp", "-pms", "6", "-ratio", "2", "-rounds", "20"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "Algorithm 3") {
		t.Fatalf("grmp prints a GLAP histogram:\n%s", stderr.String())
	}
}
