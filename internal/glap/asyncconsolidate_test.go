package glap

import (
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// runDrained runs rounds rounds of e, plays out every pending timeout and
// in-flight message after the last, and checks cl's invariants.
func runDrained(t *testing.T, e *sim.Engine, cl *dc.Cluster, rounds int) {
	t.Helper()
	e.RunRounds(rounds)
	e.RunEvents(-1)
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncConsolidateMatchesSyncAtZeroLoss is the equivalence gate: with no
// loss and unit latency, the message-passing protocol must consolidate to a
// packing of the same quality as the synchronous shortcut.
func TestAsyncConsolidateMatchesSyncAtZeroLoss(t *testing.T) {
	const pms, vms, wlRounds, rounds = 20, 40, 80, 40
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, pms, vms, wlRounds, 53, 53), 53)
	es, syncCons := syncStack(t, genCluster(t, pms, vms, wlRounds, 53, 53), shared, 54, 8, 4)
	ea, cons := asyncStack(t, genCluster(t, pms, vms, wlRounds, 53, 53), shared, 54, 8, 4, 1, 0)
	syncCl, asyncCl := syncCons.B.C, cons.B.C
	runDrained(t, es, syncCl, rounds)
	runDrained(t, ea, asyncCl, rounds)

	syncActive, asyncActive := syncCl.ActivePMs(), asyncCl.ActivePMs()
	if asyncActive >= pms {
		t.Fatalf("async protocol did not consolidate: %d/%d PMs active", asyncActive, pms)
	}
	diff := asyncActive - syncActive
	if diff < 0 {
		diff = -diff
	}
	// Same tables, same workload, different interleaving: the packings must
	// land close together.
	if diff > 4 {
		t.Fatalf("async=%d active PMs vs sync=%d; difference %d exceeds tolerance", asyncActive, syncActive, diff)
	}
	if cons.Commits == 0 {
		t.Fatal("no migrations committed through the message path")
	}
	if got := int64(asyncCl.Migrations); got != cons.Commits {
		t.Fatalf("cluster counted %d migrations, protocol committed %d", got, cons.Commits)
	}
	if open := asyncCl.OpenReservations(); open != 0 {
		t.Fatalf("%d reservations still open after drain", open)
	}
}

// TestAsyncConsolidateNoLeaksUnderLoss is the robustness gate: at 20%
// message loss every reservation and request must still be resolved or
// expired once the run drains, and the transport counters must balance.
func TestAsyncConsolidateNoLeaksUnderLoss(t *testing.T) {
	const pms, vms, wlRounds, rounds = 20, 40, 80, 40
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, pms, vms, wlRounds, 53, 53), 53)
	e, cons := asyncStack(t, genCluster(t, pms, vms, wlRounds, 53, 53), shared, 54, 8, 4, 30, 0.20)
	cl, tr := cons.B.C, cons.Tr
	runDrained(t, e, cl, rounds)

	if open := cl.OpenReservations(); open != 0 {
		t.Fatalf("%d reservations leaked under loss", open)
	}
	if open := cons.OpenRequests(); open != 0 {
		t.Fatalf("%d requests still pending after drain", open)
	}
	if tr.Sent != tr.Delivered+tr.Dropped {
		t.Fatalf("transport counters unbalanced: sent=%d delivered=%d dropped=%d",
			tr.Sent, tr.Delivered, tr.Dropped)
	}
	if tr.Dropped == 0 {
		t.Fatal("loss injection did not fire; the test exercised nothing")
	}
	// Loss delays consolidation but must not break it outright.
	if cl.ActivePMs() >= pms {
		t.Fatalf("no consolidation under loss: %d/%d PMs active", cl.ActivePMs(), pms)
	}
	if cons.Expired == 0 {
		t.Fatal("no request expired despite 20% loss; timeout path untested")
	}
}

// TestAsyncConsolidateDeterminism pins that two identically seeded runs
// produce identical outcomes — the protocol draws all randomness from
// engine-derived streams.
func TestAsyncConsolidateDeterminism(t *testing.T) {
	const pms, vms, wlRounds, rounds = 16, 32, 60, 30
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, pms, vms, wlRounds, 61, 61), 61)
	run := func() (int, int64, int64) {
		e, cons := asyncStack(t, genCluster(t, pms, vms, wlRounds, 61, 61), shared, 62, 8, 4, 15, 0.10)
		runDrained(t, e, cons.B.C, rounds)
		return cons.B.C.ActivePMs(), cons.Commits, cons.Tr.Sent
	}
	a1, c1, s1 := run()
	a2, c2, s2 := run()
	if a1 != a2 || c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic: run1=(%d,%d,%d) run2=(%d,%d,%d)", a1, c1, s1, a2, c2, s2)
	}
}

// TestAsyncLostVerdictReleasesReservation drives the target-side expiry path
// deterministically: an offer is accepted and reserved, but the verdict (and
// everything after it) is lost, so no commit or abort ever arrives. The hold
// timer — armed for two request timeouts — must release the reservation on
// retry exhaustion instead of pinning target capacity forever.
func TestAsyncLostVerdictReleasesReservation(t *testing.T) {
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, 4, 8, 8, 3, 3), 3)
	// No overlay; every message lost: the verdict vanishes, the sender never
	// answers.
	e, cons := asyncStack(t, genCluster(t, 4, 8, 8, 3, 3), shared, 4, 0, 0, 1, 1)
	cons.OfferTimeout = 10
	cl, b := cons.B.C, cons.B

	e.RunEvents(0) // run protocol setup without executing any round
	target := e.Nodes()[0]
	pm := b.PM(target)
	var vm *dc.VM
	for _, cand := range cl.VMs {
		if cand.Host() >= 0 && cand.Host() != pm.ID {
			vm = cand
			break
		}
	}
	if vm == nil {
		t.Fatal("no VM hosted away from the target PM")
	}
	act := cons.vmAction(vm)
	// Guarantee π_in admits the offer so the test exercises the reservation,
	// not the vet.
	shared.In.Set(cons.pmState(cl, pm), act, 1)
	demand := dc.Vec{1, 1}
	cons.onOffer(e, target, vm.Host(), acOffer{
		Token: 42, VM: vm.ID, Action: act, Demand: demand, AvgDemand: demand,
	})
	if cons.Accepts != 1 {
		t.Fatalf("Accepts = %d, want the offer accepted", cons.Accepts)
	}
	if cl.OpenReservations() != 1 {
		t.Fatalf("OpenReservations = %d after acceptance, want 1", cl.OpenReservations())
	}
	if cl.Reserved(pm) == (dc.Vec{}) {
		t.Fatal("acceptance reserved no capacity on the target")
	}

	e.RunEvents(-1)
	if cl.OpenReservations() != 0 {
		t.Fatalf("OpenReservations = %d after drain, want 0", cl.OpenReservations())
	}
	if cl.Reserved(pm) != (dc.Vec{}) {
		t.Fatalf("target still pins reserved capacity %v", cl.Reserved(pm))
	}
	if cons.Expired != 1 {
		t.Fatalf("Expired = %d, want the hold timer counted once", cons.Expired)
	}
	if cons.OpenRequests() != 0 {
		t.Fatalf("OpenRequests = %d after drain", cons.OpenRequests())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTotalLossDrainsClean runs the full stack under 100% message loss:
// every exchange and offer retries to exhaustion. After the drain no node
// may remain busy, no request may stay open, no reservation may survive and
// nothing can have committed.
func TestAsyncTotalLossDrainsClean(t *testing.T) {
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, 8, 16, 10, 5, 5), 5)
	e, cons := asyncStack(t, genCluster(t, 8, 16, 10, 5, 5), shared, 6, 8, 4, 1, 1.0)
	cl := cons.B.C
	runDrained(t, e, cl, 6)
	if cons.Exchanges == 0 {
		t.Fatal("no exchange was ever started")
	}
	if cons.Expired == 0 {
		t.Fatal("total loss produced no expiries — retries did not exhaust")
	}
	if cons.Commits != 0 {
		t.Fatalf("Commits = %d under total loss", cons.Commits)
	}
	if cons.OpenRequests() != 0 {
		t.Fatalf("OpenRequests = %d after drain", cons.OpenRequests())
	}
	if cl.OpenReservations() != 0 {
		t.Fatalf("OpenReservations = %d after drain", cl.OpenReservations())
	}
	for _, n := range cons.rtEngine.Nodes() {
		if cons.state(cons.rtEngine, n).busy {
			t.Fatalf("node %d still busy after drain", n.ID)
		}
	}
}
