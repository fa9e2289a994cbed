package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/glap-sim/glap/internal/stats"
)

func genSmall(t *testing.T, vms, rounds int, seed uint64) *Set {
	t.Helper()
	set, err := Generate(DefaultGenConfig(vms, rounds, seed))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestGenerateShape(t *testing.T) {
	set := genSmall(t, 30, 100, 1)
	if set.NumVMs() != 30 || set.Rounds() != 100 {
		t.Fatalf("shape %d x %d", set.NumVMs(), set.Rounds())
	}
	for vm := 0; vm < set.NumVMs(); vm++ {
		if len(set.Series(vm)) != 100 {
			t.Fatalf("vm %d series length %d", vm, len(set.Series(vm)))
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	f := func(seed uint16) bool {
		set, err := Generate(DefaultGenConfig(10, 50, uint64(seed)))
		if err != nil {
			return false
		}
		for vm := 0; vm < set.NumVMs(); vm++ {
			for r := 0; r < set.Rounds(); r++ {
				s := set.At(vm, r)
				if s.CPU < 0 || s.CPU > 1 || s.Mem < 0 || s.Mem > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 20, 80, 9)
	b := genSmall(t, 20, 80, 9)
	for vm := 0; vm < 20; vm++ {
		for r := 0; r < 80; r++ {
			if a.At(vm, r) != b.At(vm, r) {
				t.Fatalf("divergence at vm %d round %d", vm, r)
			}
		}
	}
	c := genSmall(t, 20, 80, 10)
	same := true
	for vm := 0; vm < 20 && same; vm++ {
		for r := 0; r < 80; r++ {
			if a.At(vm, r) != c.At(vm, r) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestGenerateMeanUtilisationBand(t *testing.T) {
	set := genSmall(t, 400, 200, 3)
	cpu, mem := set.MeanUtilisation()
	// The calibration targets the Google traces' low average utilisation.
	if cpu < 0.12 || cpu > 0.45 {
		t.Fatalf("mean cpu %g outside calibration band", cpu)
	}
	if mem < 0.1 || mem > 0.55 {
		t.Fatalf("mean mem %g outside calibration band", mem)
	}
}

func TestGenerateAutocorrelation(t *testing.T) {
	set := genSmall(t, 100, 200, 4)
	var acs []float64
	for vm := 0; vm < set.NumVMs(); vm++ {
		ser := set.Series(vm)
		cs := make([]float64, len(ser))
		for i, s := range ser {
			cs[i] = s.CPU
		}
		if stats.Variance(cs) > 1e-9 {
			acs = append(acs, stats.Autocorrelation(cs, 1))
		}
	}
	if med, _ := stats.Median(acs); med < 0.5 {
		t.Fatalf("median lag-1 autocorrelation %g too low for cluster-like traces", med)
	}
}

func TestGenerateArchetypeMix(t *testing.T) {
	set := genSmall(t, 1000, 10, 5)
	counts := map[Archetype]int{}
	for vm := 0; vm < set.NumVMs(); vm++ {
		counts[set.ArchetypeOf(vm)]++
	}
	for a := Archetype(0); a < numArchetypes; a++ {
		if counts[a] == 0 {
			t.Fatalf("archetype %s never generated", a)
		}
	}
	// Bursty + spiky share should be substantial (volatility calibration).
	if frac := float64(counts[Bursty]+counts[Spiky]) / 1000; frac < 0.25 || frac > 0.55 {
		t.Fatalf("bursty+spiky fraction %g outside calibration band", frac)
	}
}

func TestGenerateCustomMix(t *testing.T) {
	cfg := DefaultGenConfig(50, 20, 6)
	cfg.Mix = map[Archetype]float64{Stable: 1}
	set, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for vm := 0; vm < set.NumVMs(); vm++ {
		if set.ArchetypeOf(vm) != Stable {
			t.Fatalf("vm %d has archetype %s", vm, set.ArchetypeOf(vm))
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{VMs: 0, Rounds: 10}); err == nil {
		t.Fatal("expected error for zero VMs")
	}
	if _, err := Generate(GenConfig{VMs: 1, Rounds: 0}); err == nil {
		t.Fatal("expected error for zero rounds")
	}
	tooLong := math.MaxInt32
	tooLong++ // past a stream's int32 round cursor (negative where int is 32 bits)
	if _, err := GenerateStreaming(GenConfig{VMs: 1, Rounds: tooLong}); err == nil {
		t.Fatal("expected error for Rounds beyond the int32 round cursor")
	}
}

func TestAtWrapsAround(t *testing.T) {
	set := genSmall(t, 3, 10, 7)
	if set.At(1, 13) != set.At(1, 3) {
		t.Fatal("At should wrap around the series length")
	}
}

// TestCSVRoundTrip writes a materialised and a streaming set — the
// representation every generated workload uses — and loads each back: every
// sample must come back as At gives it, to the %.6f WriteCSV writes.
func TestCSVRoundTrip(t *testing.T) {
	for name, gen := range map[string]func(GenConfig) (*Set, error){"materialised": Generate, "streaming": GenerateStreaming} {
		orig, err := gen(DefaultGenConfig(7, 15, 8))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, orig); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRoundTrip(t, orig, loaded)
		// Loaded (non-synthetic) sets report Stable archetypes.
		if loaded.ArchetypeOf(0) != Stable {
			t.Fatal("loaded set should report Stable archetype")
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	// input → a fragment the error must carry (the line and field it blames).
	cases := map[string][2]string{
		"empty":            {"", "empty CSV"},
		"bad vm":           {"vm,round,cpu,mem\nx,0,0.5,0.5\nx,1,0.5,0.5\n", "line 2: bad vm"},
		"bad round":        {"0,x,0.5,0.5\n", "line 1: bad round"},
		"bad cpu":          {"0,0,x,0.5\n", "line 1: bad cpu"},
		"bad mem":          {"0,0,0.5,x\n", "line 1: bad mem"},
		"cpu out of range": {"0,0,1.5,0.5\n", "line 1: cpu"},
		"mem out of range": {"0,0,0.5,0.5\n0,1,0.5,-0.1\n", "line 2: mem"},
		"cpu NaN":          {"0,0,NaN,0.5\n", "line 1: cpu"},
		"cpu nan":          {"0,0,0.5,0.5\n0,1,nan,0.5\n", "line 2: cpu"},
		"cpu +Inf":         {"0,0,+Inf,0.5\n", "line 1: cpu"},
		"cpu -inf":         {"0,0,-inf,0.5\n", "line 1: cpu"},
		"mem NaN":          {"0,0,0.5,NaN\n", "line 1: mem"},
		"mem nan":          {"0,0,0.5,nan\n", "line 1: mem"},
		"mem +Inf":         {"0,0,0.5,+Inf\n", "line 1: mem"},
		"mem -inf":         {"0,0,0.5,-inf\n", "line 1: mem"},
		"negative vm":      {"-1,0,0.5,0.5\n", "negative vm"},
		"sparse vm ids":    {"0,0,0.5,0.5\n5,0,0.5,0.5\n", "dense"},
		"missing round":    {"0,0,0.5,0.5\n0,2,0.5,0.5\n", "missing or duplicate round"},
		"uneven rounds":    {"0,0,0.5,0.5\n0,1,0.5,0.5\n1,0,0.5,0.5\n", "vm 1 has 1 rounds"},
	}
	for name, tc := range cases {
		_, err := LoadCSV(strings.NewReader(tc[0]))
		if err == nil {
			t.Fatalf("case %q: expected error", name)
		}
		if !strings.Contains(err.Error(), tc[1]) {
			t.Fatalf("case %q: error %q does not mention %q", name, err, tc[1])
		}
	}
}

func TestLoadCSVHeaderOptional(t *testing.T) {
	with := "vm,round,cpu,mem\n0,0,0.5,0.25\n"
	without := "0,0,0.5,0.25\n"
	for _, input := range []string{with, without} {
		set, err := LoadCSV(strings.NewReader(input))
		if err != nil {
			t.Fatalf("input %q: %v", input, err)
		}
		if set.NumVMs() != 1 || set.At(0, 0).CPU != 0.5 {
			t.Fatalf("input %q: bad set", input)
		}
	}
}

// TestLoadCSVArbitraryHeaders pins the loader fix for real-trace extracts:
// a first line whose leading field is not an integer is a header and must be
// skipped whatever its field count — tool-emitted comment lines have one
// field, ClusterData exports often carry extra columns. The old
// FieldsPerRecord=4 reader rejected both before the skip could run.
func TestLoadCSVArbitraryHeaders(t *testing.T) {
	cases := map[string]string{
		"one-field comment": "# google-clusterdata-2011 task_usage extract\n0,0,0.5,0.25\n",
		"two-field comment": "# clusterdata extract, resampled to 120 s\n0,0,0.5,0.25\n",
		"wide header":       "vm,round,cpu,mem,priority,scheduling_class\n0,0,0.5,0.25\n",
		"canonical header":  "vm,round,cpu,mem\n0,0,0.5,0.25\n",
	}
	for name, input := range cases {
		set, err := LoadCSV(strings.NewReader(input))
		if err != nil {
			t.Fatalf("case %q: %v", name, err)
		}
		if set.NumVMs() != 1 || set.Rounds() != 1 || set.At(0, 0).CPU != 0.5 {
			t.Fatalf("case %q: bad set", name)
		}
	}
}

// TestLoadCSVFieldCountError checks that a malformed data row is still
// rejected, and that the error names the offending line and its field count.
func TestLoadCSVFieldCountError(t *testing.T) {
	_, err := LoadCSV(strings.NewReader("0,0,0.5,0.25\n0,1,0.5\n"))
	if err == nil {
		t.Fatal("3-field data row accepted")
	}
	for _, want := range []string{"line 2", "3 fields"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestArchetypeString(t *testing.T) {
	names := map[Archetype]string{
		Stable: "stable", Diurnal: "diurnal", Periodic: "periodic",
		Bursty: "bursty", Spiky: "spiky", Archetype(99): "archetype(99)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", a, a.String())
		}
	}
}

func TestDiurnalPhaseShared(t *testing.T) {
	// Diurnal VMs must swell together: the aggregate diurnal series should
	// have a pronounced peak-to-trough range.
	cfg := DefaultGenConfig(200, 120, 11)
	cfg.Mix = map[Archetype]float64{Diurnal: 1}
	set, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, set.Rounds())
	for vm := 0; vm < set.NumVMs(); vm++ {
		for r := 0; r < set.Rounds(); r++ {
			agg[r] += set.At(vm, r).CPU
		}
	}
	lo, hi := agg[0], agg[0]
	for _, v := range agg {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.4*lo {
		t.Fatalf("aggregate diurnal swing too small: [%g, %g] — phases not shared?", lo, hi)
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	orig := genSmall(t, 5, 8, 12)
	dir := t.TempDir()
	for _, name := range []string{"plain.csv", "packed.csv.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, orig); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumVMs() != 5 || got.Rounds() != 8 {
			t.Fatalf("%s: shape %dx%d", name, got.NumVMs(), got.Rounds())
		}
		a, b := orig.At(2, 3), got.At(2, 3)
		if d := a.CPU - b.CPU; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%s: value mismatch", name)
		}
	}
	// Gzip file must actually be smaller than plain for this content.
	plain, err := os.Stat(filepath.Join(dir, "plain.csv"))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := os.Stat(filepath.Join(dir, "packed.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if packed.Size() >= plain.Size() {
		t.Fatalf("gzip did not compress: %d vs %d", packed.Size(), plain.Size())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
