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
	// Rounds is the series length, and the period of the diurnal cycle. The
	// paper uses 720 two-minute rounds (24 h).
	Rounds int
	// Seed determines every random choice; equal configs generate equal
	// sets.
	Seed uint64

	// Mix gives relative archetype weights. A nil map selects the default
	// mix: 20% stable, 30% diurnal, 10% periodic, 25% bursty, 15% spiky.
	Mix map[Archetype]float64
}

// The generator's calibration, one value each. Per-VM mean CPU utilisation is
// lognormal(meanLogMu, meanLogSigma) clipped to [minMean, maxMean], which
// yields a ~25-30% average with a heavy right tail, matching the published
// cluster statistics. The additive noise is AR(1) with coefficient arPhi,
// which reproduces the strong short-lag autocorrelation of real utilisation
// series, and innovation standard deviation noiseSigma. The constants are
// typed, so an expression over several of them, such as the stationary
// noise level noiseSigma/√(1−arPhi²), rounds to float64 at every step as
// run-time arithmetic does; untyped, it would be folded exactly and change
// the samples.
var meanLogMu = math.Log(0.22)

const (
	meanLogSigma float64 = 0.55
	minMean      float64 = 0.03
	maxMean      float64 = 0.85
	arPhi        float64 = 0.9
	noiseSigma   float64 = 0.05
)

// defaultMix is the archetype mix a nil GenConfig.Mix selects.
var defaultMix = map[Archetype]float64{
	Stable: 0.20, Diurnal: 0.30, Periodic: 0.10, Bursty: 0.25, Spiky: 0.15,
}

// DefaultGenConfig returns the configuration of a synthetic workload of the
// given scale: the default mix, and the one calibration above.
func DefaultGenConfig(vms, rounds int, seed uint64) GenConfig {
	return GenConfig{VMs: vms, Rounds: rounds, Seed: seed}
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

// cumulativeMix converts archetype weights, defaultMix for a nil map, to a
// cumulative distribution over the fixed archetype order.
func cumulativeMix(mix map[Archetype]float64) [numArchetypes]float64 {
	if mix == nil {
		mix = defaultMix
	}
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
