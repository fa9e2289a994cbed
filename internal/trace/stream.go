package trace

import (
	"math"

	"github.com/glap-sim/glap/internal/sim"
)

// vmStream is the synthesis cursor of one synthetic VM: exactly the state
// the generator carries from one round to the next, so a round's (cpu, mem)
// sample is produced on demand and no series need be held. It is 120 bytes
// whatever the round count (TestVMStreamSize). What is a fixed function of
// meanCPU — Bursty's two levels and both archetypes' switch probabilities —
// is recomputed at each step rather than stored, and nothing records where
// the stream started: a backward seek re-derives it from the Set's root RNG
// (Set.initStream).
//
// The state is advanced by At; two goroutines must not query the same VM
// concurrently. Distinct VMs are fully independent. The simulator's two
// readers keep to that by taking turns on the whole Set: the round pipeline's
// helper walks every VM for round r+1 (dc.Cluster.Prefetch) strictly between
// the cluster refresh of round r and its join ahead of round r+1's, and the
// refresh itself — chunk-parallel on large clusters — gives each VM to one
// chunk.
type vmStream struct {
	// rng is the live cursor: every draw up to round next-1 has been
	// consumed.
	rng sim.RNG

	meanCPU float64
	meanMem float64
	// noiseC and noiseM are the AR(1) noise levels of CPU and memory.
	noiseC float64
	noiseM float64
	// amp, period and phase shape the Diurnal and Periodic sinusoids. A
	// Spiky VM keeps the level of its current spike in amp.
	amp    float64
	period float64
	phase  float64

	// last is the sample at round next-1 (the cluster queries each round at
	// least twice: once to seed and once to refresh).
	last Sample
	// next is the first round not yet synthesised.
	next int32
	// state is the pattern's state machine: 1 while a Bursty VM is in a
	// high-load episode, else 0; the rounds a Spiky VM's spike has left.
	state int32
	arch  Archetype
}

// initStream returns VM vm's cursor positioned before round 0. It derives
// the VM's stream from the root, draws the archetype and replays the series
// preamble: the means, the pattern's shape, the phase and the stationary
// noise levels. The draw order is the generator's output contract; the
// differential tests and FuzzStreamAccess pin it sample for sample.
func (s *Set) initStream(vm int) vmStream {
	cfg := &s.streamCfg
	st := vmStream{rng: s.root.DeriveValue(uint64(vm), 0x77ace)}
	rng := &st.rng
	st.arch = pickArchetype(rng, s.cum)
	st.meanCPU = clampRange(rng.LogNormal(cfg.MeanLogMu, cfg.MeanLogSigma), cfg.MinMean, cfg.MaxMean)
	// Memory mean is positively correlated with CPU mean but regresses
	// toward a moderate level.
	st.meanMem = clampRange(0.5*st.meanCPU+0.15+0.08*rng.NormFloat64(), cfg.MinMean, cfg.MaxMean)
	switch st.arch {
	case Diurnal:
		st.amp = clampRange(0.5+0.4*rng.Float64(), 0, 0.95) * st.meanCPU
		st.period = float64(cfg.DayRounds)
	case Periodic:
		st.amp = clampRange(0.3+0.5*rng.Float64(), 0, 0.9) * st.meanCPU
		st.period = 20 + 60*rng.Float64()
	}
	st.phase = rng.Float64()
	if st.arch == Diurnal {
		st.phase = s.basePhase + 0.04*rng.NormFloat64()
	}
	sigmaStat := cfg.NoiseSigma / math.Sqrt(1-cfg.ARPhi*cfg.ARPhi)
	st.noiseC = sigmaStat * rng.NormFloat64()
	st.noiseM = 0.4 * sigmaStat * rng.NormFloat64()
	return st
}

// step synthesises the sample at round st.next and advances the cursor. CPU
// follows the archetype's pattern plus AR(1) noise; memory tracks a dampened
// copy of the pattern with its own, quieter noise — memory demand in the
// cluster traces is far steadier than CPU.
func (st *vmStream) step(cfg *GenConfig) Sample {
	base := st.pattern(int(st.next))
	st.noiseC = cfg.ARPhi*st.noiseC + cfg.NoiseSigma*st.rng.NormFloat64()
	st.noiseM = cfg.ARPhi*st.noiseM + 0.4*cfg.NoiseSigma*st.rng.NormFloat64()
	cpu := clamp01(base + st.noiseC)
	memBase := st.meanMem + 0.3*(base-st.meanCPU)
	st.last = Sample{CPU: cpu, Mem: clamp01(memBase + st.noiseM)}
	st.next++
	return st.last
}

// pattern returns the deterministic (pre-noise) load at round t, advancing
// the Bursty and Spiky state machines.
func (st *vmStream) pattern(t int) float64 {
	switch st.arch {
	case Diurnal, Periodic:
		return st.meanCPU + st.amp*math.Sin(2*math.Pi*(float64(t)/st.period+st.phase))
	case Bursty:
		// A two-state chain: mean dwell 20 rounds low, 6 rounds high.
		if st.state != 0 {
			if st.rng.Bernoulli(1.0 / 6) {
				st.state = 0
			}
		} else if st.rng.Bernoulli(1.0 / 20) {
			st.state = 1
		}
		if st.state != 0 {
			return math.Min(st.meanCPU*3.2, 1.0)
		}
		return st.meanCPU * 0.5
	case Spiky:
		if st.state > 0 {
			st.state--
			return st.amp
		}
		if st.rng.Bernoulli(0.04) {
			st.state = int32(st.rng.Intn(5) + 1)
			st.amp = clampRange(st.meanCPU+0.4+0.6*st.rng.Float64(), 0, 1.0)
			return st.amp
		}
		return st.meanCPU * 0.7
	default:
		return st.meanCPU
	}
}

// GenerateStreaming builds a synthetic workload Set that synthesises samples
// on demand instead of materialising every series up front. Its samples are
// Generate's for the same config, which materialises this very synthesis;
// it holds 120 bytes of cursor per VM, independent of the round count.
//
// Access is optimised for the simulator's pattern (each VM queried at
// monotonically non-decreasing rounds, possibly with gaps, possibly the same
// round repeatedly). A backward seek re-derives the VM's stream and replays
// it from round 0, so it is correct and allocation-free but costs O(rounds);
// replaying a Set on a fresh cluster pays that once per VM.
func GenerateStreaming(cfg GenConfig) (*Set, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := &Set{
		rounds:    cfg.Rounds,
		streams:   make([]vmStream, cfg.VMs),
		streamCfg: cfg,
		root:      *sim.NewRNG(cfg.Seed),
		cum:       cumulativeMix(cfg.Mix),
	}
	// Diurnal VMs share one cluster-wide phase (plus small per-VM jitter):
	// user-facing load peaks at the same local time across a data center,
	// which is what makes threshold-based consolidation at the trough so
	// dangerous and demand prediction valuable.
	set.basePhase = set.root.Float64()
	for vm := range set.streams {
		set.streams[vm] = set.initStream(vm)
	}
	return set, nil
}

// streamAt is At for streaming sets: fast-path repeat queries, advance
// in-order queries, and re-derive-and-replay backward seeks.
func (s *Set) streamAt(vm, r int) Sample {
	st := &s.streams[vm]
	r %= s.rounds
	if r == int(st.next)-1 {
		return st.last
	}
	if r < int(st.next) {
		*st = s.initStream(vm)
	}
	for int(st.next) <= r {
		st.step(&s.streamCfg)
	}
	return st.last
}

// streamSeries materialises VM vm's full series from a fresh cursor, leaving
// the live one untouched.
func (s *Set) streamSeries(vm int) []Sample {
	st := s.initStream(vm)
	out := make([]Sample, s.rounds)
	for t := range out {
		out[t] = st.step(&s.streamCfg)
	}
	return out
}
