package dc

import (
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func benchCluster(b *testing.B, pms, vms int) *Cluster {
	b.Helper()
	set, err := trace.Generate(trace.DefaultGenConfig(vms, 720, 1))
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{PMs: pms, Workload: set})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	return c
}

// BenchmarkAdvanceRound measures the per-round cluster bookkeeping at
// paper scale (1000 PMs, 3000 VMs): demand refresh, running averages, cached
// sums and energy accounting.
func BenchmarkAdvanceRound(b *testing.B) {
	c := benchCluster(b, 1000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AdvanceRound(i % 720)
	}
}

// BenchmarkAdvanceRoundSizes is the measurement behind forkMinVMs and the
// round pipeline: one AdvanceRound over a streaming workload at the
// consolidate_warm size (below the fork threshold: Workers changes nothing)
// and at a size above it, with the round's samples prefetched (hit, the
// pipelined evaluation rounds) or synthesised on the spot (miss, pre-training
// rounds and Workers 1). Run with -cpu 2 or more for the w=2 rows to fork.
func BenchmarkAdvanceRoundSizes(b *testing.B) {
	for _, sz := range []struct{ pms, ratio int }{{600, 4}, {5000, 4}} {
		for _, hit := range []bool{true, false} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("pms=%d/vms=%d/hit=%v/w=%d", sz.pms, sz.pms*sz.ratio, hit, workers), func(b *testing.B) {
					c := streamingCluster(b, sz.pms, sz.ratio, 720)
					c.PlaceRandom(sim.NewRNG(1).Intn)
					c.Workers = workers
					b.ResetTimer()
					for r := 1; r <= b.N; r++ {
						if hit {
							b.StopTimer()
							c.Prefetch(r)
							b.StartTimer()
						}
						c.AdvanceRound(r)
					}
				})
			}
		}
	}
}

func BenchmarkMigrate(b *testing.B) {
	c := benchCluster(b, 100, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := c.VMs[i%len(c.VMs)]
		dst := c.PMs[(vm.Host()+1)%len(c.PMs)]
		if err := c.Migrate(vm, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCurUtil(b *testing.B) {
	c := benchCluster(b, 100, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.CurUtil(c.PMs[i%100])
	}
}

func BenchmarkPlaceRandom(b *testing.B) {
	set, err := trace.Generate(trace.DefaultGenConfig(2000, 10, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(Config{PMs: 500, Workload: set})
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(uint64(i))
		b.StartTimer()
		c.PlaceRandom(rng.Intn)
	}
}
