package trace

import (
	"fmt"
	"math"

	"github.com/glap-sim/glap/internal/sim"
)

// GenConfig parameterises the synthetic Google-cluster-style generator.
type GenConfig struct {
	// VMs is the number of series to generate.
	VMs int
	// Rounds is the series length. The paper uses 720 two-minute rounds
	// (24 h); a diurnal cycle spans DayRounds rounds.
	Rounds int
	// Seed determines every random choice; equal configs generate equal
	// sets.
	Seed uint64

	// Mix gives relative archetype weights. A zero map selects the default
	// calibration (40% stable, 20% diurnal, 15% periodic, 15% bursty, 10%
	// spiky), which matches the Google traces' dominance of long-running
	// low-utilisation tasks with a heavy batch tail.
	Mix map[Archetype]float64

	// MeanLogMu / MeanLogSigma parameterise the lognormal distribution of
	// per-VM mean CPU utilisation, clipped to [MinMean, MaxMean]. The
	// defaults yield a ~25-30% average with a heavy right tail, matching
	// the published cluster statistics.
	MeanLogMu    float64
	MeanLogSigma float64
	MinMean      float64
	MaxMean      float64

	// ARPhi is the AR(1) coefficient of the additive noise; ~0.9 reproduces
	// the strong short-lag autocorrelation of real utilisation series.
	ARPhi float64
	// NoiseSigma is the innovation standard deviation of the AR(1) noise.
	NoiseSigma float64

	// DayRounds is the length of one simulated day in rounds (diurnal
	// period). Defaults to Rounds.
	DayRounds int
}

// DefaultGenConfig returns the calibration used throughout the reproduction
// for the given scale.
func DefaultGenConfig(vms, rounds int, seed uint64) GenConfig {
	return GenConfig{
		VMs:          vms,
		Rounds:       rounds,
		Seed:         seed,
		MeanLogMu:    math.Log(0.22),
		MeanLogSigma: 0.55,
		MinMean:      0.03,
		MaxMean:      0.85,
		ARPhi:        0.9,
		NoiseSigma:   0.05,
		DayRounds:    rounds,
	}
}

func (c *GenConfig) withDefaults() GenConfig {
	cfg := *c
	if cfg.Mix == nil {
		cfg.Mix = map[Archetype]float64{
			Stable: 0.20, Diurnal: 0.30, Periodic: 0.10, Bursty: 0.25, Spiky: 0.15,
		}
	}
	if cfg.MeanLogMu == 0 && cfg.MeanLogSigma == 0 {
		cfg.MeanLogMu = math.Log(0.22)
		cfg.MeanLogSigma = 0.55
	}
	if cfg.MaxMean == 0 {
		cfg.MinMean, cfg.MaxMean = 0.03, 0.85
	}
	if cfg.ARPhi == 0 {
		cfg.ARPhi = 0.9
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = 0.05
	}
	if cfg.DayRounds == 0 {
		cfg.DayRounds = cfg.Rounds
	}
	return cfg
}

// Validate reports configuration errors.
func (c *GenConfig) Validate() error {
	if c.VMs <= 0 {
		return fmt.Errorf("trace: VMs must be positive, got %d", c.VMs)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("trace: Rounds must be positive, got %d", c.Rounds)
	}
	if c.Rounds > math.MaxInt32 {
		return fmt.Errorf("trace: Rounds must fit a stream's int32 round cursor, got %d", c.Rounds)
	}
	if c.ARPhi < 0 || c.ARPhi >= 1 {
		return fmt.Errorf("trace: ARPhi must be in [0,1), got %g", c.ARPhi)
	}
	return nil
}

// Generate builds a synthetic workload Set from cfg with every series
// materialised: GenerateStreaming's samples, synthesised once and held.
func Generate(cfg GenConfig) (*Set, error) {
	src, err := GenerateStreaming(cfg)
	if err != nil {
		return nil, err
	}
	set := &Set{
		rounds: src.rounds,
		series: make([][]Sample, len(src.streams)),
		arch:   make([]Archetype, len(src.streams)),
	}
	for vm := range src.streams {
		set.arch[vm] = src.streams[vm].arch
		set.series[vm] = src.streamSeries(vm)
	}
	return set, nil
}

// cumulativeMix converts archetype weights to a cumulative distribution over
// the fixed archetype order.
func cumulativeMix(mix map[Archetype]float64) [numArchetypes]float64 {
	var cum [numArchetypes]float64
	total := 0.0
	for a := Archetype(0); a < numArchetypes; a++ {
		total += math.Max(0, mix[a])
	}
	if total == 0 {
		total = 1
		mix = map[Archetype]float64{Stable: 1}
	}
	acc := 0.0
	for a := Archetype(0); a < numArchetypes; a++ {
		acc += math.Max(0, mix[a]) / total
		cum[a] = acc
	}
	cum[numArchetypes-1] = 1
	return cum
}

func pickArchetype(rng *sim.RNG, cum [numArchetypes]float64) Archetype {
	u := rng.Float64()
	for a := Archetype(0); a < numArchetypes; a++ {
		if u <= cum[a] {
			return a
		}
	}
	return Stable
}
