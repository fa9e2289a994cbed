package main

import (
	"time"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/stats"
)

// The measurements below are taken once per traced invocation, after the
// reps, on inputs the reps left behind. None of them is inside run_s.

// sink keeps the timed loops observable to the compiler.
var sink float64

// traceAtNs sweeps Set.At over every VM and round in round order — the
// access pattern of dc.AdvanceRound — and returns the cost of one sample.
func traceAtNs(in *inputs) float64 {
	vms := in.w.NumVMs()
	t0 := time.Now()
	for r := 0; r < traceRounds; r++ {
		for vm := 0; vm < vms; vm++ {
			sink += in.w.At(vm, r).CPU
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(vms*traceRounds)
}

// learnParSpeedup is the learning phase's wall at Workers 1 over its wall at
// the default worker count, on an untraced glap.Pretrain without aggregation.
func learnParSpeedup(s spec, in *inputs) (float64, error) {
	cfg := glap.Config{LearnRounds: min(s.glapConfig().LearnRounds, 60), AggRounds: -1}
	learnSec := func(workers int) (float64, error) {
		c, err := buildCluster(s, in.seed, in.w)
		if err != nil {
			return 0, err
		}
		res, err := glap.Pretrain(cfg, c, derive(in.seed, seedPretrain), glap.PretrainOptions{Workers: workers})
		if err != nil {
			return 0, err
		}
		return res.LearnSec, nil
	}
	if _, err := learnSec(0); err != nil { // warm-up
		return 0, err
	}
	seq, err := learnSec(1)
	if err != nil {
		return 0, err
	}
	par, err := learnSec(0)
	if err != nil || par == 0 {
		return 0, err
	}
	return seq / par, nil
}

// mergeNs times one steady-state pairwise merge on clones of the converged
// tables: perturb one cell of an endpoint that shares its backing, then
// Unify — a copy-on-write detach plus a full average scan, the shape of an
// exchange once aggregation gossip has saturated.
func mergeNs(tables *glap.NodeTables) float64 {
	p, q := tables.Out.Clone(), tables.Out.Clone()
	qlearn.Unify(p, q)
	const iters = 200
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		q.Set(1, 2, float64(i))
		qlearn.Unify(p, q)
	}
	return float64(time.Since(t0).Nanoseconds()) / iters
}

// cosineNs times one dense φ^io cosine sample.
func cosineNs(tables *glap.NodeTables) float64 {
	a := append([]float64(nil), tables.IOVec()...)
	b := append([]float64(nil), a...)
	b[0]++
	const iters = 200
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sink += stats.CosineAligned(a, b)
	}
	return float64(time.Since(t0).Nanoseconds()) / iters
}
