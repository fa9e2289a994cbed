package glapsim

import (
	"testing"

	"github.com/glap-sim/glap/internal/dc"
)

func TestVMChurnValidation(t *testing.T) {
	x := smallExperiment(PolicyGRMP)
	x.VMChurn = 1.5
	if err := x.Validate(); err == nil {
		t.Fatal("VMChurn > 1 accepted")
	}
	x.VMChurn = -0.1
	if err := x.Validate(); err == nil {
		t.Fatal("negative VMChurn accepted")
	}
}

func TestVMChurnPopulationVaries(t *testing.T) {
	x := smallExperiment(PolicyNone)
	x.VMChurn = 0.5
	x.Rounds = 60
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	cl := res.Cluster
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Roughly half the VMs were churned: some must have departed for good
	// and some permanent VMs remain.
	departed, permanent := 0, 0
	for _, vm := range cl.VMs {
		if vm.Departed() {
			departed++
		}
		if vm.Present() {
			permanent++
		}
	}
	if departed == 0 {
		t.Fatal("no VM departed under 50% churn")
	}
	if permanent == 0 {
		t.Fatal("every VM vanished")
	}
	if departed+permanent > len(cl.VMs) {
		t.Fatal("inconsistent lifecycle accounting")
	}
}

func TestVMChurnUnderConsolidation(t *testing.T) {
	// Every policy must stay consistent when VMs arrive and depart under
	// it mid-run. At 1 and 2 rounds a churned VM may arrive in the last
	// round, with no room left for a departure.
	for _, p := range Policies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			for _, rounds := range []int{50, 1, 2} {
				x := smallExperiment(p)
				x.VMChurn = 0.4
				x.Rounds = rounds
				res, err := Run(x)
				if err != nil {
					t.Fatalf("%d rounds: %v", rounds, err)
				}
				if err := res.Cluster.CheckInvariants(); err != nil {
					t.Fatalf("%d rounds: %v", rounds, err)
				}
				// Arrivals land on powered PMs only.
				for _, vm := range res.Cluster.VMs {
					if vm.Present() && !res.Cluster.PMs[vm.Host()].On() {
						t.Fatalf("%d rounds: VM %d on powered-off PM %d", rounds, vm.ID, vm.Host())
					}
				}
			}
		})
	}
}

func TestVMChurnDeterministic(t *testing.T) {
	x := smallExperiment(PolicyGRMP)
	x.VMChurn = 0.3
	a, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.Series.Last()
	lb, _ := b.Series.Last()
	if la != lb {
		t.Fatal("churned runs with equal seeds diverged")
	}
	_ = dc.EC2Micro // keep import for spec reference
}
