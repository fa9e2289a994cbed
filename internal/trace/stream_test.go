package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/glap-sim/glap/internal/sim"
)

// refGenerate is the generator as it stood before one synthesis served both
// modes: every VM's series built in one pass of genSeries over a
// heap-allocated pattern. It is the reference the streaming cursor and
// Generate are held to, sample for sample and bit for bit.
func refGenerate(cfg GenConfig) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	set := &Set{
		rounds: cfg.Rounds,
		series: make([][]Sample, cfg.VMs),
		arch:   make([]Archetype, cfg.VMs),
	}
	cum := cumulativeMix(cfg.Mix)
	basePhase := root.Float64()
	for vm := 0; vm < cfg.VMs; vm++ {
		rng := root.Derive(uint64(vm), 0x77ace)
		arch := pickArchetype(rng, cum)
		set.arch[vm] = arch
		set.series[vm] = genSeries(rng, arch, cfg, basePhase)
	}
	return set, nil
}

// genSeries produces one VM's (cpu, mem) series. CPU follows the archetype
// pattern with AR(1) noise; memory tracks a dampened version of the pattern
// with its own, quieter noise — memory demand in the cluster traces is far
// steadier than CPU.
func genSeries(rng *sim.RNG, arch Archetype, cfg GenConfig, basePhase float64) []Sample {
	meanCPU := clampRange(rng.LogNormal(meanLogMu, meanLogSigma), minMean, maxMean)
	// Memory mean is positively correlated with CPU mean but regresses
	// toward a moderate level.
	meanMem := clampRange(0.5*meanCPU+0.15+0.08*rng.NormFloat64(), minMean, maxMean)

	out := make([]Sample, cfg.Rounds)
	pat := newPattern(rng, arch, meanCPU, cfg)
	noiseC, noiseM := 0.0, 0.0
	phase := rng.Float64()
	if arch == Diurnal {
		phase = basePhase + 0.04*rng.NormFloat64()
	}
	sigmaStat := noiseSigma / math.Sqrt(1-arPhi*arPhi)
	noiseC = sigmaStat * rng.NormFloat64()
	noiseM = 0.4 * sigmaStat * rng.NormFloat64()
	for t := 0; t < cfg.Rounds; t++ {
		base := pat.at(rng, t, phase)
		noiseC = arPhi*noiseC + noiseSigma*rng.NormFloat64()
		noiseM = arPhi*noiseM + 0.4*noiseSigma*rng.NormFloat64()
		cpu := clamp01(base + noiseC)
		memBase := meanMem + 0.3*(base-meanCPU)
		mem := clamp01(memBase + noiseM)
		out[t] = Sample{CPU: cpu, Mem: mem}
	}
	return out
}

// pattern is the deterministic (pre-noise) load shape of one VM.
type pattern struct {
	arch   Archetype
	mean   float64
	amp    float64
	period float64
	// bursty two-state Markov chain
	high     bool
	pLowHigh float64
	pHighLow float64
	lowLevel float64
	hiLevel  float64
	// spiky state
	spikeLeft int
	spikeLvl  float64
	pSpike    float64
}

func newPattern(rng *sim.RNG, arch Archetype, mean float64, cfg GenConfig) *pattern {
	p := makePattern(rng, arch, mean, cfg)
	return &p
}

// makePattern is newPattern as a value.
func makePattern(rng *sim.RNG, arch Archetype, mean float64, cfg GenConfig) pattern {
	p := pattern{arch: arch, mean: mean}
	switch arch {
	case Stable:
	case Diurnal:
		p.amp = clampRange(0.5+0.4*rng.Float64(), 0, 0.95) * mean
		p.period = float64(cfg.Rounds)
	case Periodic:
		p.amp = clampRange(0.3+0.5*rng.Float64(), 0, 0.9) * mean
		p.period = 20 + 60*rng.Float64()
	case Bursty:
		p.lowLevel = mean * 0.5
		p.hiLevel = math.Min(mean*3.2, 1.0)
		p.pLowHigh = 1.0 / 20 // mean low dwell: 20 rounds
		p.pHighLow = 1.0 / 6  // mean high dwell: 6 rounds
	case Spiky:
		p.pSpike = 0.04
	}
	return p
}

func (p *pattern) at(rng *sim.RNG, t int, phase float64) float64 {
	switch p.arch {
	case Stable:
		return p.mean
	case Diurnal, Periodic:
		return p.mean + p.amp*math.Sin(2*math.Pi*(float64(t)/p.period+phase))
	case Bursty:
		if p.high {
			if rng.Bernoulli(p.pHighLow) {
				p.high = false
			}
		} else if rng.Bernoulli(p.pLowHigh) {
			p.high = true
		}
		if p.high {
			return p.hiLevel
		}
		return p.lowLevel
	case Spiky:
		if p.spikeLeft > 0 {
			p.spikeLeft--
			return p.spikeLvl
		}
		if rng.Bernoulli(p.pSpike) {
			p.spikeLeft = rng.Intn(5) + 1
			p.spikeLvl = clampRange(p.mean+0.4+0.6*rng.Float64(), 0, 1.0)
			return p.spikeLvl
		}
		return p.mean * 0.7
	default:
		return p.mean
	}
}

// diffConfigs are the generator configurations the streaming/materialised
// differential sweeps: every archetype is exercised by the default mix, and
// the all-one-archetype mixes pin each state machine individually.
func diffConfigs() []GenConfig {
	cfgs := []GenConfig{
		DefaultGenConfig(64, 96, 1),
		DefaultGenConfig(48, 720, 0xfeed),
		DefaultGenConfig(32, 120, 7),
	}
	for a := Archetype(0); a < numArchetypes; a++ {
		c := DefaultGenConfig(16, 200, 0x9000+uint64(a))
		c.Mix = map[Archetype]float64{a: 1}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func sampleEq(a, b Sample) bool {
	return math.Float64bits(a.CPU) == math.Float64bits(b.CPU) &&
		math.Float64bits(a.Mem) == math.Float64bits(b.Mem)
}

// TestStreamingMatchesMaterialised locks the streaming cursor and Generate
// to the reference generator sample-for-sample, bit-for-bit, across
// archetypes, seeds and day lengths.
func TestStreamingMatchesMaterialised(t *testing.T) {
	for _, cfg := range diffConfigs() {
		ref, err := refGenerate(cfg)
		if err != nil {
			t.Fatalf("refGenerate: %v", err)
		}
		mat, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		str, err := GenerateStreaming(cfg)
		if err != nil {
			t.Fatalf("GenerateStreaming: %v", err)
		}
		if !str.Streaming() || mat.Streaming() {
			t.Fatalf("mode flags wrong: streaming=%v materialised=%v", str.Streaming(), mat.Streaming())
		}
		for _, set := range []*Set{str, mat} {
			if set.NumVMs() != ref.NumVMs() || set.Rounds() != ref.Rounds() {
				t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", set.NumVMs(), set.Rounds(), ref.NumVMs(), ref.Rounds())
			}
		}
		for vm := 0; vm < ref.NumVMs(); vm++ {
			if str.ArchetypeOf(vm) != ref.ArchetypeOf(vm) || mat.ArchetypeOf(vm) != ref.ArchetypeOf(vm) {
				t.Fatalf("seed %d vm %d: archetypes %v, %v != %v", cfg.Seed, vm, str.ArchetypeOf(vm), mat.ArchetypeOf(vm), ref.ArchetypeOf(vm))
			}
			// In-order replay, with the simulator's double-query of each
			// round (seed + refresh).
			for r := 0; r < cfg.Rounds; r++ {
				got := str.At(vm, r)
				if again := str.At(vm, r); !sampleEq(got, again) {
					t.Fatalf("seed %d vm %d r %d: repeat query changed sample", cfg.Seed, vm, r)
				}
				want := ref.At(vm, r)
				if !sampleEq(got, want) {
					t.Fatalf("seed %d vm %d r %d: streamed %+v != %+v", cfg.Seed, vm, r, got, want)
				}
				if m := mat.At(vm, r); !sampleEq(m, want) {
					t.Fatalf("seed %d vm %d r %d: materialised %+v != %+v", cfg.Seed, vm, r, m, want)
				}
			}
		}
	}
}

// TestStreamingGapAndWrapAccess exercises the lifecycle access pattern:
// rounds skipped while a VM has not yet arrived, repeats, wrap-around past
// the series end, and backward seeks when a fresh cluster replays the Set.
func TestStreamingGapAndWrapAccess(t *testing.T) {
	cfg := DefaultGenConfig(40, 72, 0xabcde)
	ref, err := refGenerate(cfg)
	if err != nil {
		t.Fatalf("refGenerate: %v", err)
	}
	str, err := GenerateStreaming(cfg)
	if err != nil {
		t.Fatalf("GenerateStreaming: %v", err)
	}
	rng := sim.NewRNG(99)
	for vm := 0; vm < cfg.VMs; vm++ {
		r := 0
		// Monotone-with-gaps walk well past one wrap.
		for r < 3*cfg.Rounds {
			if want, got := ref.At(vm, r), str.At(vm, r); !sampleEq(got, want) {
				t.Fatalf("vm %d r %d: %+v != %+v", vm, r, got, want)
			}
			if rng.Bernoulli(0.3) { // linger: re-query the same round
				continue
			}
			r += 1 + rng.Intn(7)
		}
		// Backward seek (fresh cluster replaying round 0).
		if want, got := ref.At(vm, 0), str.At(vm, 0); !sampleEq(got, want) {
			t.Fatalf("vm %d: backward seek to round 0: %+v != %+v", vm, got, want)
		}
	}
}

// TestStreamingSeriesAndMean pins the whole-series views used by tooling.
func TestStreamingSeriesAndMean(t *testing.T) {
	cfg := DefaultGenConfig(24, 150, 0x5151)
	ref, _ := refGenerate(cfg)
	mat, _ := Generate(cfg)
	str, _ := GenerateStreaming(cfg)
	// Advance some live cursors first; Series must not disturb them.
	str.At(3, 17)
	for vm := 0; vm < cfg.VMs; vm++ {
		rs, ss := ref.Series(vm), str.Series(vm)
		if len(rs) != len(ss) {
			t.Fatalf("vm %d: series length %d != %d", vm, len(ss), len(rs))
		}
		for r := range rs {
			if !sampleEq(rs[r], ss[r]) {
				t.Fatalf("vm %d r %d: %+v != %+v", vm, r, ss[r], rs[r])
			}
		}
	}
	if want, got := ref.At(3, 17), str.At(3, 17); !sampleEq(got, want) {
		t.Fatalf("live cursor disturbed by Series: %+v != %+v", got, want)
	}
	rc, rm := ref.MeanUtilisation()
	for _, set := range []*Set{str, mat} {
		c, m := set.MeanUtilisation()
		if math.Float64bits(c) != math.Float64bits(rc) || math.Float64bits(m) != math.Float64bits(rm) {
			t.Fatalf("MeanUtilisation (streaming %v): (%v,%v) != (%v,%v)", set.Streaming(), c, m, rc, rm)
		}
	}
}

// TestStreamingConcurrentDisjointVMs drives disjoint VM chunks from
// concurrent goroutines, the cluster refresh's access pattern. Run under
// -race this proves per-VM state independence.
func TestStreamingConcurrentDisjointVMs(t *testing.T) {
	cfg := DefaultGenConfig(64, 90, 0xc0ffee)
	ref, _ := refGenerate(cfg)
	str, _ := GenerateStreaming(cfg)
	const chunk = 8
	var wg sync.WaitGroup
	errs := make(chan string, cfg.VMs)
	for lo := 0; lo < cfg.VMs; lo += chunk {
		hi := lo + chunk
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := 0; r < 2*cfg.Rounds; r++ {
				for vm := lo; vm < hi; vm++ {
					if want, got := ref.At(vm, r), str.At(vm, r); !sampleEq(got, want) {
						errs <- "mismatch"
						return
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestVMStreamSize pins the per-VM cost of a streaming set: the cursor is
// what a streamed run holds for every VM of every replication it keeps.
func TestVMStreamSize(t *testing.T) {
	if n := unsafe.Sizeof(vmStream{}); n > 120 {
		t.Fatalf("vmStream is %d bytes, want at most 120", n)
	}
}

// TestStreamSeekZeroAlloc checks that a backward seek — every VM's first
// query when a second cluster replays a warm Set — re-derives the cursor
// without allocating.
func TestStreamSeekZeroAlloc(t *testing.T) {
	set, err := GenerateStreaming(DefaultGenConfig(16, 96, 3))
	if err != nil {
		t.Fatal(err)
	}
	for vm := 0; vm < set.NumVMs(); vm++ {
		set.At(vm, 40)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for vm := 0; vm < set.NumVMs(); vm++ {
			set.At(vm, 0)  // backward seek
			set.At(vm, 40) // and forward again, for the next run
		}
	})
	if allocs != 0 {
		t.Fatalf("a backward seek allocates: %v allocs per run", allocs)
	}
}

// TestAtNegativeRoundPanics checks that both modes refuse a negative round
// with one message and leave the cursor where it was: a streaming set must
// not answer Sample{} and rewind the VM.
func TestAtNegativeRoundPanics(t *testing.T) {
	cfg := DefaultGenConfig(4, 12, 5)
	mat, _ := Generate(cfg)
	str, _ := GenerateStreaming(cfg)
	str.At(1, 7) // a VM past round 0, then a seek
	for _, q := range [][2]int{{0, -1}, {1, -3}, {2, -12}} {
		var msgs []string
		for _, set := range []*Set{mat, str} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "trace: ") {
						t.Fatalf("At(%d, %d), streaming %v: panic %q, want a trace: panic", q[0], q[1], set.Streaming(), msg)
					}
					msgs = append(msgs, msg)
				}()
				set.At(q[0], q[1])
			}()
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("At(%d, %d): materialised %q, streaming %q", q[0], q[1], msgs[0], msgs[1])
		}
	}
	if want, got := mat.At(1, 7), str.At(1, 7); !sampleEq(got, want) {
		t.Fatalf("cursor moved by a refused query: %+v != %+v", got, want)
	}
}
