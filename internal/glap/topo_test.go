package glap

import (
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
)

func mustTree(t *testing.T, n, rack, pod int) *topology.Tree {
	t.Helper()
	tree, err := topology.New(n, rack, pod)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBandwidthModel(t *testing.T) {
	tree := mustTree(t, 16, 4, 2)
	bw := BandwidthModel(tree, 1000)
	if got := bw(0, 1); got != 1000 {
		t.Fatalf("same-rack bw %g", got)
	}
	if got := bw(0, 4); got != 400 {
		t.Fatalf("same-pod bw %g", got)
	}
	if got := bw(0, 8); got != 160 {
		t.Fatalf("cross-pod bw %g", got)
	}
}

func TestLocalitySelectorPrefersRack(t *testing.T) {
	// 32 nodes in 4-PM racks; node 0's Cyclon view will eventually include
	// both rack-mates and strangers. Count tier frequencies over many
	// selections: same-rack peers must dominate when available.
	tree := mustTree(t, 32, 4, 2)
	e := sim.NewEngine(32, 9)
	e.Register(cyclon.New(16, 8))
	e.RunRounds(20)

	sel := LocalitySelector(tree)
	rng := sim.NewRNG(4)
	rackHits, podHits, otherHits := 0, 0, 0
	for i := 0; i < 3000; i++ {
		p := sel(e, e.Node(0), rng)
		if p < 0 {
			continue
		}
		switch {
		case tree.SameRack(0, p):
			rackHits++
		case tree.SamePod(0, p):
			podHits++
		default:
			otherHits++
		}
	}
	// The view holds ~3 rack-mates out of 16 entries; uniform selection
	// would pick them ~19% of the time. The locality selector must pick
	// them the majority of the time while still mixing in wider tiers.
	if rackHits < otherHits {
		t.Fatalf("rack=%d pod=%d other=%d: locality preference absent", rackHits, podHits, otherHits)
	}
	if otherHits == 0 && podHits == 0 {
		t.Fatal("selector never leaves the rack; draining would deadlock")
	}
}

func TestLocalitySelectorDeadPeers(t *testing.T) {
	tree := mustTree(t, 8, 4, 2)
	e := sim.NewEngine(8, 10)
	e.Register(cyclon.New(7, 3))
	e.RunRounds(5)
	for id := 1; id < 8; id++ {
		e.SetUp(e.Node(id), false)
	}
	sel := LocalitySelector(tree)
	rng := sim.NewRNG(5)
	if p := sel(e, e.Node(0), rng); p != -1 {
		t.Fatalf("selected dead peer %d", p)
	}
}

func TestRackActive(t *testing.T) {
	cl := constCluster(t, 8, 8, 0.2, 0.2)
	e := sim.NewEngine(8, 11)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	tree := mustTree(t, 8, 4, 2)
	cons := &ConsolidateProtocol{B: b, Topo: tree}
	if got := cons.rackActive(0); got != 4 {
		t.Fatalf("rack 0 active = %d, want 4", got)
	}
	// Empty and power off PM 1.
	for _, id := range cl.PMs[1].VMIDs() {
		if err := cl.Migrate(cl.VMs[id], cl.PMs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !b.TryPowerOffIfEmpty(1) {
		t.Fatal("could not power off PM 1")
	}
	if got := cons.rackActive(0); got != 3 {
		t.Fatalf("rack 0 active after power-off = %d, want 3", got)
	}
	if got := cons.rackActive(5); got != 4 {
		t.Fatalf("rack 1 active = %d, want 4", got)
	}
}

func TestTopologyAwareConsolidationDrainsRacks(t *testing.T) {
	// End-to-end: with the topology extension, the surviving active PMs
	// must concentrate in fewer racks than uniform GLAP leaves them in.
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, 24, 48, 80, 19, 19), 19)
	tree := mustTree(t, 24, 4, 3)
	e, cons := syncStack(t, genCluster(t, 24, 48, 80, 19, 19), shared, 20, 20, 10)
	cons.Select, cons.Topo = LocalitySelector(tree), tree
	e.RunRounds(60)
	cl := cons.B.C

	racksUp := map[int]bool{}
	active := 0
	for _, pm := range cl.PMs {
		if pm.On() {
			racksUp[tree.RackOf(pm.ID)] = true
			active++
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if active >= 24 {
		t.Fatal("no consolidation under topology extension")
	}
	// Active PMs should occupy a compact set of racks: within a couple of
	// racks of the densest possible packing (ceil(active/rackSize)).
	ideal := (active + tree.PMsPerRack - 1) / tree.PMsPerRack
	if len(racksUp) > ideal+2 {
		t.Fatalf("%d active PMs spread over %d racks (ideal %d)", active, len(racksUp), ideal)
	}
}
