package trace

import (
	"math"

	"github.com/glap-sim/glap/internal/sim"
)

// vmStream is the compact per-VM synthesis state of a streaming Set. It
// holds exactly what genSeries keeps between rounds — the RNG cursor, the
// pattern state machine, the AR(1) noise levels and the per-VM constants —
// so one round's (cpu, mem) sample can be produced on demand without ever
// materialising the series. ~200 bytes per VM replace rounds×16 bytes of
// samples.
//
// The state is advanced by At; two goroutines must not query the same VM
// concurrently. Distinct VMs are fully independent. The simulator's two
// readers keep to that by taking turns on the whole Set: the round pipeline's
// helper walks every VM for round r+1 (dc.Cluster.Prefetch) strictly between
// the cluster refresh of round r and its join ahead of round r+1's, and the
// refresh itself — chunk-parallel on large clusters — gives each VM to one
// chunk.
type vmStream struct {
	// init is the RNG state immediately after archetype selection; reset
	// replays the series header from it, so backward seeks (trace
	// wrap-around, a fresh cluster replaying the same Set) are exact.
	init sim.RNG
	// rng is the live cursor: every draw up to round next-1 has been
	// consumed, matching genSeries after next-1 loop iterations.
	rng sim.RNG
	pat pattern

	meanCPU float64
	meanMem float64
	phase   float64
	noiseC  float64
	noiseM  float64

	// next is the first round not yet synthesised; last is the sample at
	// round next-1 (the cluster queries each round at least twice: once to
	// seed and once to refresh).
	next int
	last Sample
}

// resetHeader replays the per-series preamble of genSeries — mean draws,
// pattern construction, phase, stationary noise init — leaving the stream
// positioned before round 0. Draw order must match genSeries exactly; the
// differential test locks this in.
func (st *vmStream) resetHeader(arch Archetype, cfg *GenConfig, basePhase float64) {
	rng := st.init
	st.meanCPU = clampRange(rng.LogNormal(cfg.MeanLogMu, cfg.MeanLogSigma), cfg.MinMean, cfg.MaxMean)
	st.meanMem = clampRange(0.5*st.meanCPU+0.15+0.08*rng.NormFloat64(), cfg.MinMean, cfg.MaxMean)
	st.pat = makePattern(&rng, arch, st.meanCPU, *cfg)
	st.phase = rng.Float64()
	if arch == Diurnal {
		st.phase = basePhase + 0.04*rng.NormFloat64()
	}
	sigmaStat := cfg.NoiseSigma / math.Sqrt(1-cfg.ARPhi*cfg.ARPhi)
	st.noiseC = sigmaStat * rng.NormFloat64()
	st.noiseM = 0.4 * sigmaStat * rng.NormFloat64()
	st.rng = rng
	st.next = 0
	st.last = Sample{}
}

// step synthesises the sample at round t (which must equal st.next) and
// advances the cursor. The body mirrors one iteration of the genSeries
// round loop.
func (st *vmStream) step(cfg *GenConfig, t int) Sample {
	base := st.pat.at(&st.rng, t, st.phase)
	st.noiseC = cfg.ARPhi*st.noiseC + cfg.NoiseSigma*st.rng.NormFloat64()
	st.noiseM = cfg.ARPhi*st.noiseM + 0.4*cfg.NoiseSigma*st.rng.NormFloat64()
	cpu := clamp01(base + st.noiseC)
	memBase := st.meanMem + 0.3*(base-st.meanCPU)
	st.last = Sample{CPU: cpu, Mem: clamp01(memBase + st.noiseM)}
	st.next = t + 1
	return st.last
}

// GenerateStreaming builds a synthetic workload Set that synthesises samples
// on demand instead of materialising every series up front. It produces
// byte-identical samples to Generate for the same config — same root RNG,
// same per-VM derived streams, same draw order — while holding only ~200
// bytes of state per VM, independent of the round count.
//
// Access is optimised for the simulator's pattern (each VM queried at
// monotonically non-decreasing rounds, possibly with gaps, possibly the same
// round repeatedly). Backward seeks replay the series from its header, so
// they are correct but cost O(rounds); replaying a Set on a fresh cluster
// pays that once per VM.
func GenerateStreaming(cfg GenConfig) (*Set, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	set := &Set{
		rounds:    cfg.Rounds,
		arch:      make([]Archetype, cfg.VMs),
		streams:   make([]vmStream, cfg.VMs),
		streamCfg: cfg,
	}
	cum := cumulativeMix(cfg.Mix)
	set.basePhase = root.Float64()
	for vm := 0; vm < cfg.VMs; vm++ {
		rng := root.Derive(uint64(vm), 0x77ace)
		arch := pickArchetype(rng, cum)
		set.arch[vm] = arch
		st := &set.streams[vm]
		st.init = *rng
		st.resetHeader(arch, &set.streamCfg, set.basePhase)
	}
	return set, nil
}

// streamAt is At for streaming sets: fast-path repeat queries, advance
// in-order queries, and reset-and-replay backward seeks.
func (s *Set) streamAt(vm, r int) Sample {
	st := &s.streams[vm]
	r %= s.rounds
	if r == st.next-1 {
		return st.last
	}
	if r < st.next {
		st.resetHeader(s.arch[vm], &s.streamCfg, s.basePhase)
	}
	for st.next <= r {
		st.step(&s.streamCfg, st.next)
	}
	return st.last
}

// streamSeries materialises VM vm's full series from a throwaway copy of its
// stream state, leaving the live cursor untouched.
func (s *Set) streamSeries(vm int) []Sample {
	st := s.streams[vm]
	st.resetHeader(s.arch[vm], &s.streamCfg, s.basePhase)
	out := make([]Sample, s.rounds)
	for t := range out {
		out[t] = st.step(&s.streamCfg, t)
	}
	return out
}
