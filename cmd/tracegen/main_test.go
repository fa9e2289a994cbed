package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/trace"
)

// TestGenerateThenStats writes a trace to a file, reads it back with -stats
// and with trace.LoadFile, and checks that only the generate path reports an
// archetype mix: a loaded file carries no archetypes.
func TestGenerateThenStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-vms", "40", "-rounds", "30", "-seed", "7", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	gen := stderr.String()
	if stdout.Len() != 0 {
		t.Fatalf("generating to -o wrote to stdout:\n%s", stdout.String())
	}
	for _, want := range []string{"wrote 40 VMs x 30 rounds to " + path, "mean utilisation:", "archetype mix: map["} {
		if !strings.Contains(gen, want) {
			t.Fatalf("generate summary lacks %q:\n%s", want, gen)
		}
	}

	stderr.Reset()
	if err := run([]string{"-stats", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	st := stderr.String()
	if !strings.Contains(st, "mean utilisation:") || !strings.Contains(st, "lag-1 autocorrelation:") {
		t.Fatalf("-stats summary incomplete:\n%s", st)
	}
	if strings.Contains(st, "archetype") {
		t.Fatalf("-stats reported an archetype mix for a loaded file:\n%s", st)
	}

	got, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Generate(trace.DefaultGenConfig(40, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVMs() != 40 || got.Rounds() != 30 {
		t.Fatalf("loaded %d VMs x %d rounds, want 40 x 30", got.NumVMs(), got.Rounds())
	}
	// The CSV carries six decimals.
	for vm := 0; vm < 40; vm++ {
		g, w := got.Series(vm), want.Series(vm)
		for r := range w {
			if math.Abs(g[r].CPU-w[r].CPU) > 1e-6 || math.Abs(g[r].Mem-w[r].Mem) > 1e-6 {
				t.Fatalf("vm %d round %d: loaded %+v, generated %+v", vm, r, g[r], w[r])
			}
		}
	}
}
