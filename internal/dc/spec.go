// Package dc models the cloud data center the consolidation protocols
// operate on: physical machines (PMs), virtual machines (VMs), resource
// accounting, live-migration mechanics and costs, and the linear power model
// used for the energy-overhead experiments (Figure 10, Eq. 3 of the paper).
package dc

// Resource identifies one of the two resources the paper considers.
type Resource int

const (
	// CPU capacity is measured in MIPS.
	CPU Resource = iota
	// Mem capacity is measured in MB.
	Mem

	// NumResources is the number of modelled resources.
	NumResources = 2
)

// String returns the resource name.
func (r Resource) String() string {
	if r == CPU {
		return "cpu"
	}
	return "mem"
}

// Vec is a resource vector indexed by Resource.
type Vec [NumResources]float64

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Mul returns element-wise v * w.
func (v Vec) Mul(w Vec) Vec {
	for i := range v {
		v[i] *= w[i]
	}
	return v
}

// Scale returns v * k.
func (v Vec) Scale(k float64) Vec {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Div returns element-wise v / w (0 where w is 0).
func (v Vec) Div(w Vec) Vec {
	for i := range v {
		if w[i] == 0 {
			v[i] = 0
		} else {
			v[i] /= w[i]
		}
	}
	return v
}

// Max returns the largest component.
func (v Vec) Max() float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Avg returns the mean of the components. The paper calibrates states on
// "average resource utilisation degree".
func (v Vec) Avg() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / NumResources
}

// FitsWithin reports whether every component of v is <= the matching
// component of w.
func (v Vec) FitsWithin(w Vec) bool {
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// PMSpec describes a physical machine model.
type PMSpec struct {
	// Name of the hardware model.
	Name string
	// Capacity per resource (MIPS, MB).
	Capacity Vec
	// NetBandwidthMBps is the bandwidth available to live migration, in
	// MB/s.
	NetBandwidthMBps float64
	// PowerIdleW and PowerMaxW define the linear power model
	// P(u) = PowerIdleW + (PowerMaxW-PowerIdleW)*u for CPU utilisation u.
	PowerIdleW float64
	PowerMaxW  float64
	// MigrationCPUOverhead is the fraction of CPU capacity consumed by a
	// live migration on each endpoint while it is in flight; it determines
	// P^lm in Eq. 3.
	MigrationCPUOverhead float64
}

// VMSpec describes a virtual machine type: the resources it is allocated at
// creation (its nominal size).
type VMSpec struct {
	Name     string
	Capacity Vec // allocated MIPS, MB
}

// HPProLiantML110G5 is the PM model used in Section V-A: 2660 MIPS CPU,
// 4 GB memory, 10 Gb/s network. Idle/peak power follow the SPECpower
// figures used by Beloglazov & Buyya for the same server (93 W / 135 W).
var HPProLiantML110G5 = PMSpec{
	Name:                 "HP ProLiant ML110 G5",
	Capacity:             Vec{2660, 4096},
	NetBandwidthMBps:     1250, // 10 Gb/s
	PowerIdleW:           93,
	PowerMaxW:            135,
	MigrationCPUOverhead: 0.10,
}

// HPProLiantML110G4 is a weaker server generation (1860 MIPS, 4 GB,
// 86 W / 117 W — the second machine type of Beloglazov & Buyya's testbed),
// available for heterogeneous-hardware experiments where power-aware
// placement decisions actually differ across hosts.
var HPProLiantML110G4 = PMSpec{
	Name:                 "HP ProLiant ML110 G4",
	Capacity:             Vec{1860, 4096},
	NetBandwidthMBps:     1250,
	PowerIdleW:           86,
	PowerMaxW:            117,
	MigrationCPUOverhead: 0.10,
}

// RoundSeconds is the wall-clock length of one round: the paper's 720 rounds
// span 24 h.
const RoundSeconds float64 = 120

// EC2Micro is the VM model used in Section V-A: 500 MIPS CPU, 613 MB memory.
var EC2Micro = VMSpec{
	Name:     "EC2 micro",
	Capacity: Vec{500, 613},
}
