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

// BestAction is π_out's choice (Algorithm 3, lines 18-20): the calibrated
// action with the highest φ^out value in the sender's state among the actions
// of the sender's VMs. It appends each VM's action to acts, in vms order, and
// returns the extended slice for CheapestVM. Distinct actions keep first-seen
// order for Table.Best's tie-break, so with VMs in ascending-ID order the
// choice is deterministic. Table.Best reads unwritten cells as 0, so ok is
// false only when vms is empty.
//
// Most exchanges migrate nothing, so the call must not build garbage: the
// caller passes acts on its stack, the distinct actions live in call-local
// stack scratch (append spills to the heap past 16 of them), and no state is
// shared between calls or transports.
func BestAction(out *qlearn.Table, sender qlearn.State, vms []*dc.VM, action func(*dc.VM) qlearn.Action, acts []qlearn.Action) (qlearn.Action, []qlearn.Action, bool) {
	var distinctBuf [16]qlearn.Action
	distinct := distinctBuf[:0]
	for _, vm := range vms {
		a := action(vm)
		acts = append(acts, a)
		if !slices.Contains(distinct, a) {
			distinct = append(distinct, a)
		}
	}
	best, _, ok := out.Best(sender, distinct)
	return best, acts, ok
}

// CheapestVM completes π_out (Algorithm 3, line 21): among the VMs whose
// action in acts (BestAction's list) is a, the cheapest to migrate — the
// first strictly smallest current memory footprint (migration time, and
// hence cost, scales with transferred memory). It is nil when no VM has
// action a.
func CheapestVM(vms []*dc.VM, acts []qlearn.Action, a qlearn.Action) *dc.VM {
	var cheapest *dc.VM
	var cheapestMem float64
	for i, vm := range vms {
		if acts[i] != a {
			continue
		}
		if mem := vm.CurAbs()[dc.Mem]; cheapest == nil || mem < cheapestMem {
			cheapest, cheapestMem = vm, mem
		}
	}
	return cheapest
}

// AcceptIn is the π_in test (Algorithm 3, line 22): the offered action must
// have non-negative φ^in value in the target's state. It depends on the
// action alone, not on which VM carries it, so a transport can run it before
// CheapestVM: a vetoed exchange then never scans the VMs a second time.
func AcceptIn(in *qlearn.Table, target qlearn.State, a qlearn.Action) bool {
	return in.Get(target, a) >= 0
}
