package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
	"github.com/glap-sim/glap/internal/trace"
)

// fixture is a Q store checkpointed after a default pre-training of 500 PMs
// at ratio 3, seed 1 (regenerate with `bash bench/run.sh -genfixture
// bench/testdata/qtables_500x3_seed1.json`). The warm workloads restore it
// in set-up, so a change to learning or merging cannot move them.
//
//go:embed testdata/qtables_500x3_seed1.json
var fixture []byte

// traceRounds is the length of every generated trace: the paper's 24 h of
// 2-minute rounds. Shorter runs read a prefix; pre-training reads 700 rounds.
const traceRounds = 720

// spec is one workload: the Section V experiment cut so that a different
// layer does most of the work. The PM counts are the issue's (1000, 3000,
// 5000, 6000, 2000) scaled by one common factor of 0.12, which brings a rep
// to about a second, so that a 20 s run passes twice over its replications
// (see README.md, "Sizes").
type spec struct {
	name               string
	pms, ratio, rounds int
	policies           []glapsim.Policy
	// learn and agg are glap.Config's LearnRounds and AggRounds; zero keeps
	// the paper's 500 + 200.
	learn, agg int
	// warm restores the fixture instead of pre-training.
	warm bool
	net  glapsim.NetConfig
}

var specs = []spec{
	{name: "paper_glap", pms: 120, ratio: 3, rounds: 720,
		policies: []glapsim.Policy{glapsim.PolicyGLAP}},
	{name: "agg_scale", pms: 360, ratio: 3, rounds: 60, learn: 40, agg: 150,
		policies: []glapsim.Policy{glapsim.PolicyGLAP}},
	{name: "consolidate_warm", pms: 600, ratio: 4, rounds: 720, warm: true,
		policies: []glapsim.Policy{glapsim.PolicyGLAP}},
	{name: "async_lossy", pms: 720, ratio: 4, rounds: 720, warm: true,
		policies: []glapsim.Policy{glapsim.PolicyGLAPAsync},
		net:      glapsim.NetConfig{Latency: 30, DropProb: 0.1}},
	{name: "baselines", pms: 240, ratio: 3, rounds: 720,
		policies: []glapsim.Policy{glapsim.PolicyGRMP, glapsim.PolicyEcoCloud, glapsim.PolicyPABFD}},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func pretrains(p glapsim.Policy) bool {
	return p == glapsim.PolicyGLAP || p == glapsim.PolicyGLAPAsync
}

// glapConfig is the configuration the traced assembly hands the protocols:
// the defaults the facade would fill in, with the spec's phase lengths.
func (s spec) glapConfig() glap.Config {
	cfg := glap.DefaultConfig()
	if s.learn != 0 {
		cfg.LearnRounds = s.learn
	}
	if s.agg != 0 {
		cfg.AggRounds = s.agg
	}
	return cfg
}

// pmRounds is the simulated work of one rep: PMs × rounds over every policy,
// pre-training rounds included.
func (s spec) pmRounds() float64 {
	total := 0
	for _, p := range s.policies {
		total += s.rounds
		if pretrains(p) && !s.warm {
			cfg := s.glapConfig()
			total += cfg.LearnRounds + cfg.AggRounds
		}
	}
	return float64(s.pms) * float64(total)
}

func (s spec) experiment(p glapsim.Policy, in *inputs) glapsim.Experiment {
	return glapsim.Experiment{
		PMs: s.pms, Ratio: s.ratio, Rounds: s.rounds, Seed: in.seed, Policy: p,
		Workload: in.w, PretrainedTables: in.tables,
		GLAP: glap.Config{LearnRounds: s.learn, AggRounds: s.agg},
		Net:  s.net,
	}
}

// The facade's seed-derivation purposes (glapsim.go, unexported there). The
// traced assembly must derive the same streams; the fingerprint check
// between the two fails if these drift apart.
const (
	seedTrace     = 1
	seedPlacement = 2
	seedPretrain  = 3
	seedEngine    = 4
)

func derive(seed, purpose uint64) uint64 {
	return sim.NewRNG(seed).Derive(purpose).Uint64()
}

// buildCluster is the facade's cluster construction: dc.New plus the seeded
// random initial placement.
func buildCluster(s spec, seed uint64, w *trace.Set) (*dc.Cluster, error) {
	c, err := dc.New(dc.Config{PMs: s.pms, Workload: w})
	if err != nil {
		return nil, err
	}
	c.PlaceRandom(sim.NewRNG(derive(seed, seedPlacement)).Intn)
	return c, nil
}

// inputs is everything one replication's runs are handed: the timed region
// never synthesises its own workload.
type inputs struct {
	seed   uint64
	w      *trace.Set
	tables *glap.NodeTables // restored fixture; nil unless spec.warm

	// Set-up cost by layer, in seconds.
	traceGen, dcBuild, restore float64
}

func (in *inputs) setupSeconds() float64 { return in.traceGen + in.dcBuild + in.restore }

// prepare builds one replication's inputs and times each part. The cluster
// it builds is only measured and checked: every run builds its own, because
// a run consumes its cluster.
func prepare(s spec, seed uint64) (*inputs, error) {
	in := &inputs{seed: seed}
	t0 := time.Now()
	w, err := trace.GenerateStreaming(trace.DefaultGenConfig(s.pms*s.ratio, traceRounds, derive(seed, seedTrace)))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	c, err := buildCluster(s, seed, w)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if s.warm {
		if in.tables, err = glap.LoadTables(bytes.NewReader(fixture)); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	in.w = w
	in.traceGen, in.dcBuild, in.restore = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	if err := checkCluster(s, c); err != nil {
		return nil, fmt.Errorf("initial placement: %w", err)
	}
	return in, nil
}

// policyRun is what one policy's run leaves behind, from the facade or from
// the traced assembly.
type policyRun struct {
	series   *metrics.Series
	cluster  *dc.Cluster
	bfd      int
	pretrain *glap.PretrainResult
}

// outcome is one rep: its wall time, the simulated statistics and the
// correctness checks.
type outcome struct {
	wall        float64 // seconds in the timed region
	fingerprint string  // series_sha256 over every policy's series

	activeOverBFD float64
	overloadFrac  float64
	migPerVM      float64
	migrations    int64
	cosine        float64 // 0 when nothing was pre-trained
	qcells        int     // qlearn.Footprint cells of the pre-trained tables
	qbackings     int
	qvalueMB      float64
	shared        *glap.NodeTables // the Q store consolidation ran on; nil for baselines

	checks   int
	failures []string
	checkSec float64 // time spent in CheckInvariants and the conservation scans
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runFacade is the untraced rep: the entry point users call, once per policy.
func runFacade(s spec, in *inputs) outcome {
	runs := make([]policyRun, 0, len(s.policies))
	var runErr error
	t0 := time.Now()
	for _, p := range s.policies {
		res, err := glapsim.Run(s.experiment(p, in))
		if err != nil {
			runErr = fmt.Errorf("%s: %w", p, err)
			break
		}
		runs = append(runs, policyRun{res.Series, res.Cluster, res.BFDBaseline, res.Pretrain})
	}
	wall := time.Since(t0).Seconds()
	o := assess(s, in, runs, runErr)
	o.wall = wall
	return o
}

// checkCluster is the structural part of the correctness gate.
func checkCluster(s spec, c *dc.Cluster) error {
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	hosted := 0
	for _, pm := range c.PMs {
		hosted += pm.NumVMs()
	}
	if want := s.pms * s.ratio; hosted != want || len(c.VMs) != want {
		return fmt.Errorf("VMs not conserved: %d hosted, %d known, want %d", hosted, len(c.VMs), want)
	}
	if n := c.OpenReservations(); n != 0 {
		return fmt.Errorf("%d reservations leaked", n)
	}
	return nil
}

// assess derives the fingerprint and the simulated statistics from finished
// runs and applies the per-rep checks. It runs outside the timed region.
func assess(s spec, in *inputs, runs []policyRun, runErr error) outcome {
	var o outcome
	o.check(runErr == nil, "run failed: %v", runErr)
	if runErr != nil {
		return o
	}
	h := sha256.New()
	for i, r := range runs {
		t0 := time.Now()
		err := checkCluster(s, r.cluster)
		o.checkSec += time.Since(t0).Seconds()
		o.check(err == nil, "%s: %v", s.policies[i], err)

		smp := r.series.Samples
		o.check(len(smp) == s.rounds, "%s: %d samples for %d rounds", s.policies[i], len(smp), s.rounds)
		if len(smp) == 0 {
			continue
		}
		var active, overloaded, tail float64
		for _, sm := range smp {
			active += float64(sm.ActivePMs)
			overloaded += float64(sm.OverloadedPMs)
		}
		last := smp[max(0, len(smp)-60):]
		for _, sm := range last {
			tail += float64(sm.ActivePMs)
		}
		o.activeOverBFD += tail / float64(len(last)) / float64(r.bfd)
		o.overloadFrac += overloaded / active
		o.migPerVM += float64(smp[len(smp)-1].Migrations) / float64(s.pms*s.ratio)
		o.migrations += r.cluster.Migrations
		hashSeries(h, r.series, metrics.TotalEnergyKWh(r.cluster))

		if r.pretrain != nil {
			o.cosine = tableCosine(r.pretrain.Tables, in.seed)
			o.qbackings, o.qvalueMB, o.qcells = footprint(r.pretrain.Tables...)
			shared, err := glap.SharedTables(r.pretrain)
			o.check(err == nil, "shared tables: %v", err)
			o.shared = shared
		}
	}
	// The statistics of a multi-policy workload are means over its policies.
	n := float64(len(runs))
	o.activeOverBFD /= n
	o.overloadFrac /= n
	o.migPerVM /= n
	o.fingerprint = hex.EncodeToString(h.Sum(nil))
	if o.shared == nil && in.tables != nil {
		o.shared = in.tables
		o.qbackings, o.qvalueMB, o.qcells = footprint(in.tables)
	}
	return o
}

// hashSeries fingerprints every sample and the final SLA and energy floats
// bit-exactly — the same fields, in the same format, as cmd/glapbench's
// hashScaleSeries.
func hashSeries(h io.Writer, s *metrics.Series, energyKWh float64) {
	for _, sm := range s.Samples {
		fmt.Fprintf(h, "%d,%d,%d,%d,%x\n",
			sm.Round, sm.ActivePMs, sm.OverloadedPMs, sm.Migrations,
			math.Float64bits(sm.MigrationEnergyJ))
	}
	fmt.Fprintf(h, "%x,%x,%x,%x\n",
		math.Float64bits(s.SLAVO), math.Float64bits(s.SLALM),
		math.Float64bits(s.SLAV), math.Float64bits(energyKWh))
}

// tableCosine is the mean φ^io cosine over 64 seeded node pairs.
func tableCosine(tables []*glap.NodeTables, seed uint64) float64 {
	rng := sim.NewRNG(derive(seed, 0xc05))
	const pairs = 64
	sum := 0.0
	for k := 0; k < pairs; k++ {
		i := rng.Intn(len(tables))
		j := rng.Intn(len(tables) - 1)
		if j >= i {
			j++
		}
		sum += stats.CosineAligned(tables[i].IOVec(), tables[j].IOVec())
	}
	return sum / pairs
}

func footprint(tables ...*glap.NodeTables) (backings int, valueMB float64, cells int) {
	qts := make([]*qlearn.Table, 0, 2*len(tables))
	for _, t := range tables {
		qts = append(qts, t.Out, t.In)
	}
	backings, _, valueBytes, cells := qlearn.Footprint(qts)
	return backings, float64(valueBytes) / 1e6, cells
}

// writeFixture pre-trains the fixture's configuration and checkpoints the
// shared Q store.
func writeFixture(path string) error {
	s := spec{pms: 500, ratio: 3}
	in, err := prepare(s, 1)
	if err != nil {
		return err
	}
	c, err := buildCluster(s, in.seed, in.w)
	if err != nil {
		return err
	}
	res, err := glap.Pretrain(glap.Config{}, c, derive(in.seed, seedPretrain), glap.PretrainOptions{})
	if err != nil {
		return err
	}
	shared, err := glap.SharedTables(res)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := glap.SaveTables(&buf, shared); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}
