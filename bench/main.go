// Command bench is the repository's performance benchmark: the paper's
// Section V experiment cut into five workloads, measured end to end through
// the entry points users call and, in a separate traced run, layer by layer.
// BENCHMARK.json at the repository root declares the workloads, the metrics
// and their bounds; README.md in this directory explains them.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload paper_glap --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// replications is the number of independent replications a run prepares and
// cycles through (the paper repeats every experiment with fresh seeds). Each
// one is the whole workload under its own sim.ReplicationSeed of --seed. The
// simulated statistics are taken over exactly these, so they do not depend
// on how many reps fit into --seconds.
const replications = 16

const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and fail if the second set is outside the first set's bounds")
	genFixture := fs.String("genfixture", "", "regenerate the Q-table fixture at this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genFixture != "" {
		if err := writeFixture(*genFixture); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 2
	}
	selected := specs
	if *workload != "all" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []spec{s}
	}
	b := &bench{man: man, seed: *seed, seconds: *seconds, replications: replications, out: stdout}
	if *selfcheck {
		return b.selfcheck(selected)
	}

	// One workload prints its metrics under their own names; several are
	// prefixed with the workload's.
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range selected {
		var rep *report
		if *traced == 1 {
			rep = b.traced(s)
		} else {
			rep = b.untraced(s)
		}
		rep.print(stdout)
		rep.warnSpread(stdout, man)
		if err := rep.write(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for _, m := range rep.Metrics {
			name := m.Name
			if len(selected) > 1 {
				name = s.name + "." + name
			}
			total.Metrics[name] = metricValue{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// result is the object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest is BENCHMARK.json: the benchmark reads the bounds from it rather
// than repeating them.
type manifest struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// unit is the declared unit of a metric, end-to-end or per-layer ("" when the
// manifest does not declare it, which the smoke test reports).
func (m *manifest) unit(name string) string {
	for _, decls := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range decls {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

func (m *manifest) endToEnd(name string) (metricDecl, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}

// bench is one invocation's settings.
type bench struct {
	man          *manifest
	seed         uint64
	seconds      float64
	replications int
	out          io.Writer
}

// metric is one reported value. A measured one is the midmean of its samples
// and carries the noise record: the samples in rep order, their extremes,
// spread = (max − min) / median over all of them — which includes the
// difference between replications — and repeat_spread, the same figure over
// reps of one replication only (the median over the replications that ran
// more than once; -1 when none did), which is the run-to-run noise.
type metric struct {
	Name         string    `json:"name"`
	Unit         string    `json:"unit"`
	Value        float64   `json:"value"`
	Samples      []float64 `json:"samples,omitempty"`
	Min          float64   `json:"min,omitempty"`
	Max          float64   `json:"max,omitempty"`
	Spread       float64   `json:"spread,omitempty"`
	RepeatSpread float64   `json:"repeat_spread,omitempty"`
}

// report is the results file of one workload in one mode.
type report struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Trace        int      `json:"trace"`
	Seconds      float64  `json:"seconds"`
	Env          env      `json:"env"`
	Reps         int      `json:"reps"`
	Replications int      `json:"replications"`
	Correct      bool     `json:"correct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
	SeriesSHA256 []string `json:"series_sha256"`
	Metrics      []metric `json:"metrics"`
	Notes        []string `json:"notes,omitempty"`

	man   *manifest
	spans []span
}

type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
}

func currentEnv() env {
	e := env{
		Commit: os.Getenv("BENCH_COMMIT"), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	e.Host, _ = os.Hostname() // an unnamed host is recorded as ""
	return e
}

func (b *bench) newReport(s spec, traced int) *report {
	return &report{
		Workload: s.name, Seed: b.seed, Trace: traced, Seconds: b.seconds,
		Env: currentEnv(), Replications: b.replications, Correct: true,
		SeriesSHA256: make([]string, b.replications), man: b.man,
	}
}

// check counts one correctness check and records it when it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb counts a rep's checks and pins its fingerprint to the first one seen
// for the same replication: reps of one seed must repeat bit for bit.
func (r *report) absorb(rep int, o outcome) {
	r.Attempted += o.checks
	r.Failed += len(o.failures)
	r.Failures = append(r.Failures, o.failures...)
	r.Correct = r.Failed == 0
	if r.SeriesSHA256[rep] == "" {
		r.SeriesSHA256[rep] = o.fingerprint
	}
	r.check(r.SeriesSHA256[rep] == o.fingerprint, "replication %d: series fingerprint %s differs from an earlier rep's %s", rep, o.fingerprint, r.SeriesSHA256[rep])
}

// add reports a value under the unit BENCHMARK.json declares for it.
func (r *report) add(name string, value float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: r.man.unit(name), Value: value})
}

// addMeasured reports the midmean of samples, which are in rep order: sample i
// ran replication i mod r.Replications.
func (r *report) addMeasured(name string, samples []float64) {
	sm := stats.Summarize(samples)
	r.Metrics = append(r.Metrics, metric{
		Name: name, Unit: r.man.unit(name), Value: midmean(samples), Samples: samples,
		Min: sm.Min, Max: sm.Max, Spread: spread(samples), RepeatSpread: repeatSpread(samples, r.Replications),
	})
}

// setup prepares every replication's inputs; nil if one could not be.
func (b *bench) setup(s spec, r *report) []*inputs {
	ins := make([]*inputs, b.replications)
	for i := range ins {
		in, err := prepare(s, sim.ReplicationSeed(b.seed, i))
		r.check(err == nil, "set-up of replication %d: %v", i, err)
		if err != nil {
			return nil
		}
		ins[i] = in
	}
	return ins
}

// setupRepeats is how often a replication's inputs are prepared again before
// each timed rep. Set-up takes a fraction of a millisecond to a few
// milliseconds, and timed in one burst at start-up it follows whatever state
// the host is in during those few milliseconds (±15 % between processes);
// spread over the whole run it holds still (±4 %).
const setupRepeats = 8

// setupSample is the median set-up time of setupRepeats fresh preparations of
// the replication in was prepared for.
func setupSample(s spec, in *inputs) (float64, error) {
	seconds := make([]float64, setupRepeats)
	for k := range seconds {
		again, err := prepare(s, in.seed)
		if err != nil {
			return 0, err
		}
		seconds[k] = again.setupSeconds()
	}
	return median(seconds), nil
}

// untraced measures the end-to-end metrics: a discarded warm-up, then timed
// reps through the facade until --seconds have passed and every replication
// has run once.
func (b *bench) untraced(s spec) *report {
	r := b.newReport(s, 0)
	ins := b.setup(s, r)
	if ins == nil {
		return r
	}
	r.absorb(0, runFacade(s, ins[0]))

	var setups, walls, heaps []float64
	stat := make([]outcome, b.replications)
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; i < b.replications || time.Now().Before(deadline); i++ {
		rep := i % b.replications
		setup, err := setupSample(s, ins[rep])
		r.check(err == nil, "repeated set-up of replication %d: %v", rep, err)
		setups = append(setups, setup)
		runtime.GC()
		h := startHeapSampler()
		o := runFacade(s, ins[rep])
		heaps = append(heaps, h.stopMB())
		walls = append(walls, o.wall)
		r.absorb(rep, o)
		stat[rep] = o
	}
	r.Reps = len(walls)

	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = s.pmRounds() / w
	}
	var active, migs []float64
	for _, o := range stat {
		active = append(active, o.activeOverBFD)
		migs = append(migs, o.migPerVM)
	}
	r.addMeasured("setup_s", setups)
	r.addMeasured("run_s", walls)
	r.addMeasured("pm_rounds_per_s", rates)
	r.addMeasured("live_heap_peak_mb", heaps)
	r.add("active_pms_over_bfd", midmean(active))
	r.add("migrations_per_vm", midmean(migs))
	return r
}

// traced measures the per-layer metrics: each rep runs one replication
// through the facade and then through the traced assembly, which must
// reproduce the facade's series bit for bit.
func (b *bench) traced(s spec) *report {
	r := b.newReport(s, 1)
	r.Notes = append(r.Notes, "the traced run executes every protocol sequentially: the timing decorator hides sim.ParallelRound")
	ins := b.setup(s, r)
	if ins == nil {
		return r
	}
	r.absorb(0, runFacade(s, ins[0]))

	var perRep []map[string]float64
	var facadeWalls, tracedWalls, roundUs []float64
	var last outcome
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		rep := i % b.replications
		runtime.GC()
		rt := readRuntime()
		plain := runFacade(s, ins[rep])
		gc := rt.since()
		r.absorb(rep, plain)

		runtime.GC()
		qlearn.ResetMergeStats()
		o, t, counts := runTraced(s, ins[rep])
		ms := qlearn.ReadMergeStats()
		r.absorb(rep, o) // fails unless the assembly reproduces the facade's fingerprint
		r.check(o.qcells == plain.qcells, "replication %d: traced pre-training left %d Q cells, the facade %d", rep, o.qcells, plain.qcells)

		m := t.layerMetrics(o, counts)
		for k, v := range gc {
			m[k] = v
		}
		m["dc.build_s"] = ins[rep].dcBuild
		m["trace.gen_s"] = ins[rep].traceGen
		m["glap.restore_s"] = ins[rep].restore
		m["qlearn.merges"] = float64(ms.Merges)
		m["qlearn.unions"] = float64(ms.Unions)
		m["qlearn.merge_fast_frac"] = 0
		if ms.Merges > 0 {
			m["qlearn.merge_fast_frac"] = float64(ms.FastHits()) / float64(ms.Merges)
		}
		m["dc.check_s"] = o.checkSec
		perRep = append(perRep, m)
		facadeWalls = append(facadeWalls, plain.wall)
		tracedWalls = append(tracedWalls, o.wall)
		roundUs = append(roundUs, t.roundUs...)
		r.spans, last = t.spans, o
	}
	r.Reps = len(perRep)

	// Every span- and count-derived metric is the midmean over the reps.
	keys := make([]string, 0, len(perRep[0]))
	for k := range perRep[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		samples := make([]float64, len(perRep))
		for i, m := range perRep {
			samples[i] = m[k]
		}
		r.addMeasured(k, samples)
	}
	r.add("tracing.overhead_frac", midmean(tracedWalls)/midmean(facadeWalls)-1)
	p50, _ := stats.Percentile(roundUs, 50) // roundUs is never empty: one rep always runs
	p98, _ := stats.Percentile(roundUs, 98)
	r.add("sim.round_us_p50", p50)
	r.add("sim.round_us_p98", p98)
	if !tailSupported(len(roundUs), 0.98) {
		r.Notes = append(r.Notes, fmt.Sprintf("sim.round_us_p98 rests on %d rounds, fewer than ten beyond it", len(roundUs)))
	}

	// Measured once, on what the reps left behind.
	r.add("trace.at_ns", traceAtNs(ins[0]))
	speedup, mergeCost, cosineCost := 0.0, 0.0, 0.0
	if last.shared != nil {
		mergeCost, cosineCost = mergeNs(last.shared), cosineNs(last.shared)
	}
	if !s.warm && last.shared != nil {
		var err error
		speedup, err = learnParSpeedup(s, ins[0])
		r.check(err == nil, "glap.learn.par_speedup: %v", err)
	}
	r.add("glap.learn.par_speedup", speedup)
	r.add("qlearn.merge_ns", mergeCost)
	r.add("gossip.cosine_ns", cosineCost)
	return r
}

// spread is (max − min) / median of samples.
func spread(samples []float64) float64 {
	sm := stats.Summarize(samples)
	if sm.Median == 0 {
		return 0
	}
	return (sm.Max - sm.Min) / sm.Median
}

// repeatSpread is the median, over the replications that ran more than once,
// of the spread among one replication's samples (sample i ran replication
// i mod cycle). It returns -1 when no replication repeated.
func repeatSpread(samples []float64, cycle int) float64 {
	var spreads []float64
	for rep := 0; rep < cycle && rep+cycle < len(samples); rep++ {
		var same []float64
		for i := rep; i < len(samples); i += cycle {
			same = append(same, samples[i])
		}
		spreads = append(spreads, spread(same))
	}
	if len(spreads) == 0 {
		return -1
	}
	return median(spreads)
}

// print lists every metric by name with its unit and, for timings, the noise
// record; a timing whose spread exceeds its bound is flagged, so that a
// comparison it cannot resolve is not read as "unchanged".
func (r *report) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d reps over %d replications in %gs; commit %s %s host %s nproc %d GOMAXPROCS %d GOGC %s\n",
		r.Workload, r.Seed, r.Trace, r.Reps, r.Replications, r.Seconds, e.Commit, e.GoVersion, e.Host, e.NumCPU, e.GOMAXPROCS, e.GOGC)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-38s %s %s", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, "  (min %.6g max %.6g spread %.3f repeat_spread %.3f n %d)", m.Min, m.Max, m.Spread, m.RepeatSpread, len(m.Samples))
		}
		fmt.Fprintln(w)
	}
	for i, h := range r.SeriesSHA256 {
		if h != "" {
			fmt.Fprintf(w, "  series_sha256[%d] %s\n", i, h)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
}

// warnSpread prints a line for every bounded measurement whose run-to-run
// noise is wider than its bound, or unknown.
func (r *report) warnSpread(w io.Writer, man *manifest) {
	for _, m := range r.Metrics {
		d, ok := man.endToEnd(m.Name)
		if !ok || len(m.Samples) == 0 {
			continue
		}
		switch {
		case m.RepeatSpread < 0:
			fmt.Fprintf(w, "  WARNING: %s: no replication ran twice, so its noise is unmeasured\n", m.Name)
		case m.RepeatSpread > d.Bound:
			fmt.Fprintf(w, "  WARNING: %s repeat_spread %.3f exceeds its bound %.3f: a difference inside it is unresolved, not \"unchanged\"\n", m.Name, m.RepeatSpread, d.Bound)
		}
	}
}

// write stores the report (and a traced run's spans) under bench/out.
func (r *report) write() error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("results_%s_trace%d_seed%d.json", r.Workload, r.Trace, r.Seed)
	if err := writeFile(filepath.Join(outDir, name), raw); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	raw, err = json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(outDir, "trace_"+r.Workload+".json"), raw)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfcheck runs the untraced suite twice and compares the second set with
// the first under the benchmark's own bounds: timings within their bound,
// simulated statistics and fingerprints bit-identical, no failed check.
func (b *bench) selfcheck(selected []spec) int {
	bad := 0
	for _, s := range selected {
		first, second := b.untraced(s), b.untraced(s)
		first.print(b.out)
		second.print(b.out)
		if !first.Correct || !second.Correct {
			bad++
		}
		for i, h := range first.SeriesSHA256 {
			if h != second.SeriesSHA256[i] {
				fmt.Fprintf(b.out, "SELFCHECK %s: series_sha256[%d] differs between the sets\n", s.name, i)
				bad++
			}
		}
		for i, m1 := range first.Metrics {
			m2 := second.Metrics[i]
			d, ok := b.man.endToEnd(m1.Name)
			if !ok {
				continue
			}
			worse := m2.Value/m1.Value - 1
			if d.Better == "higher" {
				worse = 1 - m2.Value/m1.Value
			}
			verdict := "ok"
			switch {
			case len(m1.Samples) == 0 && m1.Value != m2.Value:
				verdict = "FAIL: a simulated statistic must repeat bit for bit"
			case worse > d.Bound || math.IsNaN(worse):
				verdict = "FAIL: outside the bound"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(b.out, "SELFCHECK %s %s: %.6g then %.6g, worse by %.4f, bound %.4f: %s\n", s.name, m1.Name, m1.Value, m2.Value, worse, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(b.out, "SELFCHECK failed: %d findings\n", bad)
		return 1
	}
	fmt.Fprintln(b.out, "SELFCHECK passed")
	return 0
}
