// Package decision is the transport-agnostic core of GLAP's Algorithm 3:
// the direction rule that picks which endpoint of a push-pull exchange acts
// as sender, the π_out = argmax Q_out VM selection, and the π_in accept
// test. The functions are pure — they consume plain endpoint views and
// Q-tables and touch neither the simulation engine nor any transport — so
// the cycle-driven protocol (glap.ConsolidateProtocol), the message-passing
// protocol (glap.AsyncConsolidateProtocol), and any future transport drive
// bit-identical decisions from one implementation. The differential tests
// in internal/glap pin exactly that.
//
// The split mirrors how distributed-RL systems are usually factored:
// gossip-TD methods are defined as "local update rule + gossip
// communication", with the decision/aggregation operator swappable
// independently of the transport that carries it.
package decision

import (
	"slices"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/qlearn"
)

// Mode is the sender role Algorithm 3's direction rule assigns to an
// endpoint for one exchange.
type Mode int

const (
	// ModeNone: this endpoint does not send in the exchange.
	ModeNone Mode = iota
	// ModeShed: the endpoint is overloaded and sheds VMs until it is not
	// (Algorithm 3, lines 12-13).
	ModeShed
	// ModeEmpty: the endpoint has the lower utilisation and empties itself
	// toward power-off (lines 14-16).
	ModeEmpty
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeShed:
		return "shed"
	case ModeEmpty:
		return "empty"
	default:
		return "none"
	}
}

// View is the decision-relevant summary of one endpoint of an exchange.
// The synchronous protocol builds it from the live cluster; the
// asynchronous protocol builds the remote side from the load snapshot that
// travelled over the wire — at zero latency and loss the two constructions
// coincide exactly.
type View struct {
	// ID is the PM/node identifier (the direction tie-breaker).
	ID int
	// Overloaded reports whether any resource is at or above capacity
	// under current demand.
	Overloaded bool
	// Util is the mean current utilisation across resources.
	Util float64
}

// Direction runs Algorithm 3's direction rule for endpoint self against
// peer: an overloaded endpoint sheds regardless of the peer's state;
// otherwise, unless the peer is overloaded, the endpoint with strictly
// lower mean current utilisation empties itself, with ties breaking toward
// the lower ID so exactly one side of any exchange acts.
func Direction(self, peer View) Mode {
	if self.Overloaded {
		return ModeShed
	}
	if peer.Overloaded {
		return ModeNone
	}
	if self.Util < peer.Util || (self.Util == peer.Util && self.ID < peer.ID) {
		return ModeEmpty
	}
	return ModeNone
}

// Offer is π_out's migration choice: the VM to move and its calibrated
// action.
type Offer struct {
	VM     *dc.VM
	Action qlearn.Action
}

// SelectOffer runs π_out (Algorithm 3, lines 18-21): it picks the
// calibrated action with the highest φ^out value in the sender's state among
// the actions of the sender's VMs, and among the VMs of that action the
// cheapest to migrate — the first strictly smallest current memory footprint
// (migration time, and hence cost, scales with transferred memory). Distinct
// actions keep first-seen order for Table.Best's tie-break, so with VMs in
// ascending-ID order the choice is deterministic. Table.Best reads unwritten
// cells as 0, so ok is false only when vms is empty.
//
// Most exchanges migrate nothing, so the call must not build garbage: each
// VM's action is recorded once in call-local scratch that lives on the stack
// (append spills to the heap past 64 VMs or 16 distinct actions), so the
// function stays pure: no state is shared between calls or transports.
func SelectOffer(out *qlearn.Table, sender qlearn.State, vms []*dc.VM, action func(*dc.VM) qlearn.Action) (Offer, bool) {
	var perVMBuf [64]qlearn.Action
	var distinctBuf [16]qlearn.Action
	perVM, distinct := perVMBuf[:0], distinctBuf[:0]
	for _, vm := range vms {
		a := action(vm)
		perVM = append(perVM, a)
		if !slices.Contains(distinct, a) {
			distinct = append(distinct, a)
		}
	}
	best, _, ok := out.Best(sender, distinct)
	if !ok {
		return Offer{}, false
	}
	var cheapest *dc.VM
	var cheapestMem float64
	for i, vm := range vms {
		if perVM[i] != best {
			continue
		}
		if mem := vm.CurAbs()[dc.Mem]; cheapest == nil || mem < cheapestMem {
			cheapest, cheapestMem = vm, mem
		}
	}
	return Offer{VM: cheapest, Action: best}, true
}

// VetOffer runs the π_in accept test plus the capacity check (Algorithm 3,
// lines 22-23): the offered action must have non-negative φ^in value in the
// target's state, and the offered demand must fit within the target's free
// capacity. The caller chooses which free vector to vet against — the live
// one (synchronous), a remote estimate (sender-side pre-vet), or capacity
// net of open reservations (target-side re-vet).
func VetOffer(in *qlearn.Table, target qlearn.State, a qlearn.Action, demand, free dc.Vec) bool {
	return in.Get(target, a) >= 0 && demand.FitsWithin(free)
}
