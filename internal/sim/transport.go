package sim

import "fmt"

// Message is a unit of communication routed through a Transport.
type Message struct {
	// From and To are node ids.
	From, To int
	// Proto names the handler that receives the message.
	Proto string
	// Payload is the protocol-defined content.
	Payload any
}

// Handler consumes messages for one protocol. Protocols that also need a
// periodic active thread implement Protocol as well and register with the
// engine in the usual way.
type Handler interface {
	// Name identifies the protocol the handler serves.
	Name() string
	// Deliver handles message m arriving at node n.
	Deliver(e *Engine, n *Node, m Message)
}

// LatencyFunc returns the virtual delivery delay for a message between two
// nodes.
type LatencyFunc func(from, to int) int64

// ConstantLatency returns a latency model with a fixed delay.
func ConstantLatency(d int64) LatencyFunc {
	return func(from, to int) int64 { return d }
}

// UniformLatency returns a latency model drawing uniformly from [min, max]
// per message using the given stream.
func UniformLatency(rng *RNG, min, max int64) LatencyFunc {
	if max < min {
		min, max = max, min
	}
	return func(from, to int) int64 {
		if max == min {
			return min
		}
		return min + int64(rng.Intn(int(max-min+1)))
	}
}

// Transport delivers messages between nodes through the engine's event
// queue, enabling PeerSim-style event-driven (asynchronous) protocols next
// to the cycle-driven ones. Deliveries to nodes that are down when the
// message arrives are dropped, as are messages when DropProb fires.
type Transport struct {
	e        *Engine
	latency  LatencyFunc
	handlers map[string]Handler

	// DropProb is the probability a message is silently lost (failure
	// injection for robustness tests).
	DropProb float64

	rng *RNG

	// free is the list of delivery records no event queue holds.
	free *delivery

	// Sent counts every message accepted from a live sender; Delivered and
	// Dropped partition those by outcome (loss injection, or a destination
	// that is down at delivery time). Once all in-flight messages have been
	// drained, Sent == Delivered + Dropped.
	Sent      int64
	Delivered int64
	Dropped   int64
}

// NewTransport builds a transport on engine e with the given latency model.
func NewTransport(e *Engine, latency LatencyFunc) *Transport {
	if latency == nil {
		latency = ConstantLatency(1)
	}
	return &Transport{
		e:        e,
		latency:  latency,
		handlers: make(map[string]Handler),
		rng:      e.RNG().Derive(0x7a5b07),
	}
}

// Handle registers a message handler. Registering two handlers for one
// protocol name panics: that is a wiring bug.
func (t *Transport) Handle(h Handler) {
	if _, dup := t.handlers[h.Name()]; dup {
		panic(fmt.Sprintf("sim: duplicate handler %q", h.Name()))
	}
	t.handlers[h.Name()] = h
}

// delivery is one message in flight: the event that delivers it, with the
// handler and the message it delivers. The transport owns it — no caller
// sees the event — and puts it back on its free list as the event fires.
type delivery struct {
	Event
	t    *Transport
	h    Handler
	m    Message
	next *delivery
}

// fire delivers the message, or drops it when the destination is down. The
// record is recycled first, its fields copied out, so the reply a handler
// usually sends reuses it.
func (d *delivery) fire() {
	t, h, m := d.t, d.h, d.m
	d.h, d.m = nil, Message{}
	d.next, t.free = t.free, d
	dst := t.e.Node(m.To)
	if !dst.Up() {
		t.Dropped++
		return
	}
	t.Delivered++
	h.Deliver(t.e, dst, m)
}

// Send schedules delivery of a message. Sending from a down node is a
// no-op (dead nodes cannot talk); the recipient's liveness is checked at
// delivery time, so messages in flight to a node that dies are lost.
// Steady-state sends allocate nothing: the delivery event is a recycled
// record, not a closure.
func (t *Transport) Send(from, to int, proto string, payload any) {
	h, ok := t.handlers[proto]
	if !ok {
		panic(fmt.Sprintf("sim: no handler for protocol %q", proto))
	}
	if !t.e.Node(from).Up() {
		return
	}
	t.Sent++
	if t.DropProb > 0 && t.rng.Bernoulli(t.DropProb) {
		t.Dropped++
		return
	}
	d := t.free
	if d != nil {
		t.free = d.next
	} else {
		d = &delivery{t: t}
		d.rec = d
	}
	d.h = h
	d.m = Message{From: from, To: to, Proto: proto, Payload: payload}
	t.e.schedule(&d.Event, t.e.now+t.latency(from, to), 1)
}
