package main

import (
	"bytes"
	"io"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/qlearn"
)

func TestMedianMinMax(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median of even count = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of odd count = %g, want 5", got)
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %g, want 3.5 (the mean of 2, 3, 4, 5)", got)
	}
	if got := spread(xs); got != 4.0/3 {
		t.Errorf("spread = %g, want 4/3", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestTailRule(t *testing.T) {
	// p98 needs ten samples beyond it: 500 rounds give exactly ten.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{499, 0.98, false}, {500, 0.98, true}, {720, 0.98, true}, {12, 0.5, false}, {20, 0.5, true}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestRepeatSpread(t *testing.T) {
	// Two replications, the first run three times (10, 11, 12), the second
	// twice (100, 100).
	samples := []float64{10, 100, 11, 100, 12}
	if got, want := repeatSpread(samples, 2), (2.0/11+0)/2; got != want {
		t.Errorf("repeatSpread = %g, want %g", got, want)
	}
	if got := repeatSpread(samples[:2], 2); got != -1 {
		t.Errorf("repeatSpread without a repeat = %g, want -1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", StartNs: 0, EndNs: 1000, BusyNs: 1000},
		{ID: 1, Parent: 0, Name: "dc.build", StartNs: 0, EndNs: 100, BusyNs: 100},
		{ID: 2, Parent: 0, Name: "sim.run", StartNs: 100, EndNs: 900, BusyNs: 800},
		{ID: 3, Parent: 2, Name: "sim.round", StartNs: 150, EndNs: 850, BusyNs: 700},
		// Aggregated layer spans: busy is what counts, not end − start.
		{ID: 4, Parent: 3, Name: "cyclon", StartNs: 150, EndNs: 800, BusyNs: 200},
		{ID: 5, Parent: 3, Name: "glap.consolidate", StartNs: 160, EndNs: 850, BusyNs: 300},
	}
	self := selfTimes(spans)
	if self[0] != 100 {
		t.Errorf("root self = %d, want 100", self[0])
	}
	if self[3] != 200 {
		t.Errorf("round self = %d, want 200", self[3])
	}
	// sim.run keeps 100 outside its round, the round 200 outside its layers.
	if got := simSelfNs(spans, self); got != 300 {
		t.Errorf("sim self = %d, want 300", got)
	}
}

func TestTracerAggregatesPerRoundAndLayer(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run")
	stage := tr.begin("sim.run")
	for r := 0; r < 2; r++ {
		for i := 0; i < 3; i++ {
			tr.add(lCyclon, tr.epoch, 1)
		}
		tr.add(lConsolidate, tr.epoch, 0) // Setup-style work: busy but no call
		tr.endRound(r)
	}
	tr.add(lAsync, tr.epoch, 1) // after the last round: flushed by end
	tr.end(stage)
	tr.end(root)

	byName := map[string]int{}
	for _, s := range tr.spans {
		byName[s.Name]++
		if s.Name == "cyclon" && (s.Calls != 3 || tr.spans[s.Parent].Name != "sim.round") {
			t.Errorf("cyclon span %+v: want 3 calls under a round", s)
		}
	}
	want := map[string]int{"run": 1, "sim.run": 1, "sim.round": 3, "cyclon": 2, "glap.consolidate": 2, "glap.async": 1}
	for name, n := range want {
		if byName[name] != n {
			t.Errorf("%d %q spans, want %d", byName[name], name, n)
		}
	}
	if tr.total[lCyclon].calls != 6 || tr.total[lConsolidate].calls != 0 || len(tr.roundUs) != 2 {
		t.Errorf("totals: cyclon %d calls, consolidate %d calls, %d round walls", tr.total[lCyclon].calls, tr.total[lConsolidate].calls, len(tr.roundUs))
	}
}

// TestFixture pins what the warm workloads restore: a change to the file, or
// to the codec's reading of it, moves consolidate_warm and async_lossy.
func TestFixture(t *testing.T) {
	tables, err := glap.LoadTables(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if !tables.Trained {
		t.Error("fixture is not marked trained")
	}
	if p := tables.Out.Precision(); p != qlearn.F64 || tables.In.Precision() != qlearn.F64 {
		t.Errorf("fixture precision tier %v, want f64", p)
	}
	nonZero := 0
	for _, tbl := range []*qlearn.Table{tables.Out, tables.In} {
		for _, v := range tbl.Flat() {
			if v != 0 {
				nonZero++
			}
		}
	}
	if cells := tables.Out.Len() + tables.In.Len(); cells != fixtureCells || nonZero != fixtureNonZero {
		t.Errorf("fixture has %d cells, %d non-zero; want %d, %d", cells, nonZero, fixtureCells, fixtureNonZero)
	}
}

const (
	fixtureCells   = 4305
	fixtureNonZero = 4305
)

// tiny shrinks a workload to 40 PMs × 30 rounds with a short pre-training.
func (s spec) tiny() spec {
	s.pms, s.rounds = 40, 30
	if !s.warm && pretrains(s.policies[0]) {
		s.learn, s.agg = 20, 10
	}
	return s
}

// TestSmoke runs all five workloads through the untraced and the traced path
// and checks the output against BENCHMARK.json: every declared metric exactly
// once, under its declared unit, with a finite value — and every correctness
// check passing, which includes the traced assembly (decorated GLAP, async
// GLAP, GRMP, EcoCloud, PABFD stacks) reproducing the facade's series bit for
// bit.
func TestSmoke(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{man: man, seed: 1, seconds: 0, replications: 2, out: io.Discard}
	for _, s := range specs {
		s := s.tiny()
		for _, mode := range []struct {
			name  string
			run   func(spec) *report
			decls []metricDecl
		}{{"untraced", b.untraced, man.EndToEnd}, {"traced", b.traced, man.PerLayer}} {
			r := mode.run(s)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s %s: %d of %d checks failed: %v", s.name, mode.name, r.Failed, r.Attempted, r.Failures)
			}
			got := map[string]metric{}
			for _, m := range r.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s %s: metric %s emitted twice", s.name, mode.name, m.Name)
				}
				got[m.Name] = m
			}
			for _, d := range mode.decls {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s %s: metric %s not emitted", s.name, mode.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s %s: metric %s has unit %q, declared %q", s.name, mode.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s %s: metric %s = %g", s.name, mode.name, d.Name, m.Value)
				}
				delete(got, d.Name)
			}
			for name := range got {
				t.Errorf("%s %s: metric %s is not declared in BENCHMARK.json", s.name, mode.name, name)
			}
		}
	}
}
