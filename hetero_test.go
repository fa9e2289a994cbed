package glapsim

import (
	"testing"

	"github.com/glap-sim/glap/internal/dc"
)

func TestHeterogeneousCluster(t *testing.T) {
	x := smallExperiment(PolicyGLAP)
	x.Heterogeneous = true
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	g5, g4 := 0, 0
	for _, pm := range res.Cluster.PMs {
		switch pm.Spec.Name {
		case dc.HPProLiantML110G5.Name:
			g5++
		case dc.HPProLiantML110G4.Name:
			g4++
		default:
			t.Fatalf("unexpected PM spec %q", pm.Spec.Name)
		}
	}
	if g5 == 0 || g4 == 0 {
		t.Fatalf("not heterogeneous: %d G5, %d G4", g5, g4)
	}
	if err := res.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	last, _ := res.Series.Last()
	if last.ActivePMs >= x.PMs {
		t.Fatal("no consolidation on heterogeneous hardware")
	}
}

func TestHeterogeneousPABFDPrefersEfficientHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative run in -short mode")
	}
	// With mixed hardware, PABFD's power-aware best fit should still
	// consolidate correctly and uphold invariants; placement decisions now
	// differ across hosts (different dynamic power per MIPS).
	x := smallExperiment(PolicyPABFD)
	x.Heterogeneous = true
	x.Rounds = 60
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	last, _ := res.Series.Last()
	if last.ActivePMs >= x.PMs {
		t.Fatal("PABFD did not consolidate heterogeneous cluster")
	}
}

func TestHeterogeneousCapacityRespected(t *testing.T) {
	// G4 machines have 1860 MIPS: the dc model must account utilisation
	// against the per-machine capacity, so identical absolute demand yields
	// higher utilisation on G4 hosts.
	x := smallExperiment(PolicyNone)
	x.Heterogeneous = true
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	cl := res.Cluster
	for _, pm := range cl.PMs {
		u := cl.CurUtil(pm)
		var abs dc.Vec
		for _, id := range pm.VMIDs() {
			abs = abs.Add(cl.VMs[id].CurAbs())
		}
		want := abs.Div(pm.Spec.Capacity)
		if diff := u[dc.CPU] - want[dc.CPU]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("PM %d (%s): util %v, want %v", pm.ID, pm.Spec.Name, u, want)
		}
	}
}
