// Package trace supplies per-VM resource utilisation time series that drive
// the consolidation simulations.
//
// The paper replays CPU and memory utilisation from the Google Cluster
// traces [12]. Those traces cannot be redistributed here, so this package
// implements a synthetic generator calibrated to the published
// characteristics of that data — low average utilisation (most VMs use a
// small fraction of their allocation), heavy-tailed per-VM means, strong
// temporal autocorrelation, diurnal patterns, and occasional bursts — plus a
// CSV loader so real trace extracts can be dropped in when available. The
// consolidation algorithms only ever observe one (cpu, mem) sample per VM
// per round, so any series with these statistical properties exercises the
// same code paths and decision structure.
package trace

import (
	"fmt"
	"math"

	"github.com/glap-sim/glap/internal/sim"
)

// Sample is one observation of a VM's resource demand, expressed as
// fractions in [0, 1] of the VM's allocated CPU and memory capacity.
type Sample struct {
	CPU float64
	Mem float64
}

// Archetype labels the workload pattern family of a synthetic VM. The mix of
// archetypes is what gives PMs the heterogeneous, time-varying aggregate
// load that motivates GLAP.
type Archetype int

const (
	// Stable VMs hover around a fixed mean with small noise (long-running
	// services).
	Stable Archetype = iota
	// Diurnal VMs follow a day-long sinusoid (user-facing workloads).
	Diurnal
	// Periodic VMs oscillate with a short period (cron-style batch work).
	Periodic
	// Bursty VMs alternate a low baseline with sustained high-load episodes
	// (MapReduce-style batch jobs).
	Bursty
	// Spiky VMs exhibit brief random spikes over a low baseline.
	Spiky

	numArchetypes = 5
)

// String returns the archetype name.
func (a Archetype) String() string {
	switch a {
	case Stable:
		return "stable"
	case Diurnal:
		return "diurnal"
	case Periodic:
		return "periodic"
	case Bursty:
		return "bursty"
	case Spiky:
		return "spiky"
	default:
		return fmt.Sprintf("archetype(%d)", int(a))
	}
}

// Set is a replayable workload: one utilisation series per VM, all of equal
// length.
type Set struct {
	rounds int
	series [][]Sample
	// arch is each VM's generating archetype in a materialised synthetic
	// set; nil for loaded sets. A streaming set keeps it in the cursor.
	arch []Archetype

	// Streaming mode (series == nil): samples are synthesised on demand
	// from compact per-VM cursors instead of materialised slices. root is
	// the generator's root stream after the base-phase draw and cum the
	// archetype distribution; a backward seek re-derives a cursor from
	// them. See stream.go.
	streams   []vmStream
	root      sim.RNG
	cum       [numArchetypes]float64
	basePhase float64
}

// NumVMs returns the number of VM series in the set.
func (s *Set) NumVMs() int {
	if s.streams != nil {
		return len(s.streams)
	}
	return len(s.series)
}

// Rounds returns the series length.
func (s *Set) Rounds() int { return s.rounds }

// Streaming reports whether samples are synthesised on demand rather than
// held in materialised per-VM slices.
func (s *Set) Streaming() bool { return s.streams != nil }

// At returns VM vm's demand sample at round r. Rounds beyond the series
// length wrap around, so simulations may run longer than the trace.
//
// For streaming sets, At advances VM vm's synthesis state; callers may
// query distinct VMs concurrently but must not query the same VM from two
// goroutines at once, and a sample is a function of (vm, r) alone whichever
// goroutine asks and whatever was asked before — which is what lets
// sim.Engine's look-ahead helper fetch round r+1 while round r runs.
// Materialised sets are read-only and safe for any concurrent access.
//
// At panics on a negative round, in either mode.
func (s *Set) At(vm, r int) Sample {
	if r < 0 {
		panic(fmt.Sprintf("trace: At(%d, %d): negative round", vm, r))
	}
	if s.streams != nil {
		return s.streamAt(vm, r)
	}
	ser := s.series[vm]
	return ser[r%len(ser)]
}

// ArchetypeOf returns the generating archetype for VM vm, or Stable for
// loaded (non-synthetic) sets.
func (s *Set) ArchetypeOf(vm int) Archetype {
	if s.streams != nil {
		return s.streams[vm].arch
	}
	if s.arch == nil {
		return Stable
	}
	return s.arch[vm]
}

// Series returns the full series for VM vm. For materialised sets this is
// the raw backing slice and callers must not modify it; streaming sets
// synthesise a fresh copy (without disturbing the live cursor), so the
// caller owns it.
func (s *Set) Series(vm int) []Sample {
	if s.streams != nil {
		return s.streamSeries(vm)
	}
	return s.series[vm]
}

// MeanUtilisation returns the average CPU and memory utilisation over all
// VMs and rounds.
func (s *Set) MeanUtilisation() (cpu, mem float64) {
	var n float64
	if s.streams != nil {
		for vm := range s.streams {
			st := s.initStream(vm)
			for t := 0; t < s.rounds; t++ {
				sm := st.step()
				cpu += sm.CPU
				mem += sm.Mem
				n++
			}
		}
	} else {
		for _, ser := range s.series {
			for _, sm := range ser {
				cpu += sm.CPU
				mem += sm.Mem
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return cpu / n, mem / n
}

// clamp01 clips x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clampRange clips x into [lo, hi].
func clampRange(x, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, x))
}
