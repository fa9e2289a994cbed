package sim

import "testing"

type recordingHandler struct {
	received []Message
}

func (h *recordingHandler) Deliver(e *Engine, n *Node, m Message) {
	h.received = append(h.received, m)
}

func TestTransportDelivery(t *testing.T) {
	e := NewEngine(3, 1)
	tr := NewTransport(e, ConstantLatency(5))
	h := &recordingHandler{}
	tr.Handle(h)
	tr.Send(0, 1, "hello")
	tr.Send(2, 1, 42)
	e.RunEvents(-1)
	if len(h.received) != 2 {
		t.Fatalf("delivered %d messages", len(h.received))
	}
	if h.received[0].From != 0 || h.received[0].Payload.(string) != "hello" {
		t.Fatalf("first message %+v", h.received[0])
	}
	if tr.Sent != 2 || tr.Delivered != 2 || tr.Dropped != 0 {
		t.Fatalf("counters %d/%d/%d", tr.Sent, tr.Delivered, tr.Dropped)
	}
}

func TestTransportLatencyOrdering(t *testing.T) {
	e := NewEngine(2, 1)
	tr := NewTransport(e, func(from, to int) int64 {
		if from == 0 {
			return 100 // slow path
		}
		return 1 // fast path
	})
	h := &recordingHandler{}
	tr.Handle(h)
	tr.Send(0, 1, "slow")
	tr.Send(1, 0, "fast")
	e.RunEvents(-1)
	if h.received[0].Payload.(string) != "fast" || h.received[1].Payload.(string) != "slow" {
		t.Fatalf("latency ordering broken: %+v", h.received)
	}
}

func TestTransportDropsToDeadNodes(t *testing.T) {
	e := NewEngine(2, 1)
	tr := NewTransport(e, ConstantLatency(10))
	h := &recordingHandler{}
	tr.Handle(h)
	tr.Send(0, 1, "in-flight")
	e.SetUp(e.Node(1), false) // dies before delivery
	e.RunEvents(-1)
	if len(h.received) != 0 {
		t.Fatal("message delivered to dead node")
	}
	if tr.Dropped != 1 {
		t.Fatalf("Dropped = %d", tr.Dropped)
	}
	// Sending *from* a dead node is a no-op.
	tr.Send(1, 0, "ghost")
	e.RunEvents(-1)
	if len(h.received) != 0 || tr.Sent != 1 {
		t.Fatal("dead node sent a message")
	}
}

func TestTransportDropProb(t *testing.T) {
	e := NewEngine(2, 3)
	tr := NewTransport(e, ConstantLatency(1))
	tr.DropProb = 1
	h := &recordingHandler{}
	tr.Handle(h)
	for i := 0; i < 50; i++ {
		tr.Send(0, 1, i)
	}
	e.RunEvents(-1)
	if len(h.received) != 0 || tr.Dropped != 50 {
		t.Fatalf("lossy transport delivered %d, dropped %d", len(h.received), tr.Dropped)
	}
}

// TestTransportCounterInvariant pins the accounting contract under the two
// failure modes at once — probabilistic send-side loss and destinations that
// die with messages in flight: after a full drain every sent message is
// either delivered or dropped, exactly once.
func TestTransportCounterInvariant(t *testing.T) {
	const nodes = 10
	e := NewEngine(nodes, 11)
	tr := NewTransport(e, ConstantLatency(7))
	tr.DropProb = 0.3
	h := &recordingHandler{}
	tr.Handle(h)
	rng := NewRNG(99)
	for step := 0; step < 400; step++ {
		from, to := rng.Intn(nodes), rng.Intn(nodes)
		tr.Send(from, to, step)
		// Churn: nodes flap while traffic is in flight.
		if step%17 == 0 {
			n := e.Node(rng.Intn(nodes))
			e.SetUp(n, !n.Up())
		}
		if step%5 == 0 {
			e.RunEvents(e.Now() + 3) // partial drain so messages interleave
		}
	}
	e.RunEvents(-1)
	if tr.Sent == 0 || tr.Dropped == 0 || tr.Delivered == 0 {
		t.Fatalf("degenerate run: sent=%d delivered=%d dropped=%d", tr.Sent, tr.Delivered, tr.Dropped)
	}
	if tr.Sent != tr.Delivered+tr.Dropped {
		t.Fatalf("invariant violated: Sent=%d != Delivered=%d + Dropped=%d",
			tr.Sent, tr.Delivered, tr.Dropped)
	}
	if int64(len(h.received)) != tr.Delivered {
		t.Fatalf("handler saw %d messages, Delivered=%d", len(h.received), tr.Delivered)
	}
}

func TestTransportSendBeforeHandlePanics(t *testing.T) {
	e := NewEngine(2, 1)
	tr := NewTransport(e, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Send(0, 1, nil)
}

func TestTransportDuplicateHandlerPanics(t *testing.T) {
	e := NewEngine(1, 1)
	tr := NewTransport(e, nil)
	tr.Handle(&recordingHandler{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Handle(&recordingHandler{})
}
