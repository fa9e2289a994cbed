package sim

import (
	"fmt"
	"strings"
	"testing"
)

// refTransport is Transport as it was before deliveries became recycled
// records: every send schedules a heap closure around a copied Message
// through After. It is the delivery oracle of
// TestTransportAndReqTableMatchClosureOracles.
type refTransport struct {
	e        *Engine
	latency  LatencyFunc
	handlers map[string]Handler
	DropProb float64
	rng      *RNG

	Sent, Delivered, Dropped int64
}

func newRefTransport(e *Engine, latency LatencyFunc) *refTransport {
	return &refTransport{
		e:        e,
		latency:  latency,
		handlers: make(map[string]Handler),
		rng:      e.RNG().Derive(0x7a5b07),
	}
}

func (t *refTransport) Send(from, to int, proto string, payload any) {
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
	m := Message{From: from, To: to, Proto: proto, Payload: payload}
	t.e.After(t.latency(from, to), 1, func() {
		dst := t.e.Node(to)
		if !dst.Up() {
			t.Dropped++
			return
		}
		t.Delivered++
		h.Deliver(t.e, dst, m)
	})
}

// refReqTable is ReqTable as it was before requests became recycled records:
// an arm closure per request and a timeout closure per attempt. It is the
// request oracle of TestTransportAndReqTableMatchClosureOracles.
type refReqTable struct {
	e       *Engine
	nextID  uint64
	pending map[uint64]*Event
}

func (rt *refReqTable) AddRetry(timeout int64, attempts int, send func(), onFail func(id uint64)) uint64 {
	if timeout <= 0 {
		panic("sim: request timeout must be positive")
	}
	if attempts < 1 {
		attempts = 1
	}
	rt.nextID++
	id := rt.nextID
	var arm func(left int)
	arm = func(left int) {
		if send != nil {
			send()
		}
		rt.pending[id] = rt.e.After(timeout, 2, func() {
			if left > 1 {
				arm(left - 1)
				return
			}
			delete(rt.pending, id)
			if onFail != nil {
				onFail(id)
			}
		})
	}
	arm(attempts)
	return id
}

func (rt *refReqTable) Resolve(id uint64) bool {
	ev, ok := rt.pending[id]
	if !ok {
		return false
	}
	delete(rt.pending, id)
	rt.e.Cancel(ev)
	return true
}

// msgWorld is one side of the twin-engine differential: an engine with a
// transport and a request table — the recycled ones or the closure oracles,
// bound through the function fields — an operation stream, and the log of
// everything observable.
type msgWorld struct {
	e        *Engine
	send     func(from, to int, payload any)
	setDrop  func(p float64)
	addRetry func(timeout int64, attempts int, send func(), onFail func(uint64)) uint64
	resolve  func(id uint64) bool
	open     func() int
	counters func() [3]int64

	ops    *RNG
	ids    []uint64
	serial int
	log    []string
}

const msgNodes = 6

func newMsgWorld(oracle bool) *msgWorld {
	w := &msgWorld{e: NewEngine(msgNodes, 17), ops: NewRNG(23)}
	w.e.RoundPeriod = 10
	lat := UniformLatency(NewRNG(29), -3, 20) // negative latencies clamp to now
	h := msgHandler{w}
	if oracle {
		tr := newRefTransport(w.e, lat)
		tr.handlers[h.Name()] = h
		rt := &refReqTable{e: w.e, pending: make(map[uint64]*Event)}
		w.send = func(from, to int, payload any) { tr.Send(from, to, h.Name(), payload) }
		w.setDrop = func(p float64) { tr.DropProb = p }
		w.addRetry, w.resolve = rt.AddRetry, rt.Resolve
		w.open = func() int { return len(rt.pending) }
		w.counters = func() [3]int64 { return [3]int64{tr.Sent, tr.Delivered, tr.Dropped} }
		return w
	}
	tr := NewTransport(w.e, lat)
	tr.Handle(h)
	rt := NewReqTable(w.e)
	w.send = func(from, to int, payload any) { tr.Send(from, to, h.Name(), payload) }
	w.setDrop = func(p float64) { tr.DropProb = p }
	w.addRetry, w.resolve, w.open = rt.AddRetry, rt.Resolve, rt.Open
	w.counters = func() [3]int64 { return [3]int64{tr.Sent, tr.Delivered, tr.Dropped} }
	return w
}

func (w *msgWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("t=%d ", w.e.Now())+fmt.Sprintf(format, args...))
}

func (w *msgWorld) next() int { w.serial++; return w.serial }

func (w *msgWorld) logState(what string) {
	w.logf("%s open=%d counters=%v", what, w.open(), w.counters())
}

// resolveAny resolves one of the ids issued so far — pending, resolved or
// expired alike — and logs the outcome.
func (w *msgWorld) resolveAny(k int, where string) {
	if len(w.ids) == 0 {
		return
	}
	id := w.ids[k%len(w.ids)]
	w.logf("resolve %s id=%d -> %v", where, id, w.resolve(id))
}

// addRequest issues a request of 1–3 attempts whose send callback sends a
// message (and, on some requests, resolves its own id mid-retry) and whose
// failure callback resolves another id or issues a further request. Some
// requests also get a resolution scheduled just before, at or just after
// their first deadline, queued ahead of or behind it.
func (w *msgWorld) addRequest() {
	tag := w.next()
	timeout := int64(1 + w.ops.Intn(30))
	attempts := 1 + w.ops.Intn(3)
	from, to := w.ops.Intn(msgNodes), w.ops.Intn(msgNodes)
	var id uint64
	attempt := 0
	id = w.addRetry(timeout, attempts, func() {
		attempt++
		w.logf("req-send tag=%d id=%d attempt=%d", tag, id, attempt)
		w.send(from, to, w.next())
		if tag%5 == 0 {
			w.logf("self-resolve tag=%d -> %v", tag, w.resolve(id))
		}
	}, func(id uint64) {
		w.logf("fail tag=%d id=%d", tag, id)
		if id%3 == 0 {
			w.resolveAny(int(id), "from-fail")
		}
		if id%4 == 0 {
			w.addRequest()
		}
	})
	w.ids = append(w.ids, id)
	w.logf("add tag=%d id=%d timeout=%d attempts=%d", tag, id, timeout, attempts)
	if w.ops.Intn(3) == 0 {
		at := w.e.Now() + timeout + int64(w.ops.Intn(3)-1)
		prio := 1 + 2*w.ops.Intn(2)
		w.e.At(at, prio, func() { w.logf("resolve scheduled id=%d -> %v", id, w.resolve(id)) })
	}
}

// op performs one random operation.
func (w *msgWorld) op() {
	switch k := w.ops.Intn(100); {
	case k < 40:
		w.send(w.ops.Intn(msgNodes), w.ops.Intn(msgNodes), w.next())
	case k < 45:
		n := w.e.Node(w.ops.Intn(msgNodes))
		w.e.SetUp(n, !n.Up())
	case k < 50:
		w.setDrop([]float64{0, 0.1, 0.5, 1}[w.ops.Intn(4)])
	case k < 75:
		w.addRequest()
	case k < 90:
		w.resolveAny(w.ops.Intn(1<<20), "direct")
	default:
		w.logState("probe")
	}
}

// msgHandler logs every delivery; on some payloads it replies, on others it
// resolves a request from inside the delivery.
type msgHandler struct{ w *msgWorld }

func (h msgHandler) Name() string { return "diff" }

func (h msgHandler) Deliver(e *Engine, n *Node, m Message) {
	w := h.w
	p := m.Payload.(int)
	w.logf("deliver %d->%d payload=%d", m.From, n.ID, p)
	if p%4 == 0 {
		w.send(n.ID, m.From, w.next())
	}
	if p%6 == 0 {
		w.resolveAny(p, "from-deliver")
	}
}

// run drives a world through 12,000 operations: half from BeforeRound hooks
// under RunRounds (drainUntil fires the events), half between partial
// RunEvents drains, then a full drain.
func (w *msgWorld) run() {
	const perStep, steps = 20, 300
	w.e.BeforeRound(func(e *Engine, r int) {
		w.logState(fmt.Sprintf("round %d", r))
		for i := 0; i < perStep; i++ {
			w.op()
		}
	})
	w.e.RunRounds(steps)
	for s := 0; s < steps; s++ {
		w.logState(fmt.Sprintf("step %d", s))
		for i := 0; i < perStep; i++ {
			w.op()
		}
		w.e.RunEvents(w.e.Now() + int64(w.ops.Intn(16)))
	}
	w.e.RunEvents(-1)
	w.logState("drained")
}

// TestTransportAndReqTableMatchClosureOracles runs the recycled Transport and
// ReqTable against the closure-based bodies they replaced, on twin engines
// through the same 12,000 random operations: sends at random latency (zero
// and negative included) and loss, to destinations that go down and come
// back; requests of one to three attempts; resolutions before, at and after
// the deadline, from inside delivery, send and failure callbacks, and of ids
// already resolved or expired. Every delivery (time, sender, receiver,
// payload), every callback, every Resolve result, the counters and Open()
// must come out identical and in the same order.
func TestTransportAndReqTableMatchClosureOracles(t *testing.T) {
	got, want := newMsgWorld(false), newMsgWorld(true)
	got.run()
	want.run()
	if len(got.log) != len(want.log) {
		t.Errorf("log lengths differ: recycled %d, oracle %d", len(got.log), len(want.log))
	}
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			t.Fatalf("entry %d differs:\n  recycled %s\n  oracle   %s", i, got.log[i], want.log[i])
		}
	}
	c := got.counters()
	if c[0] != c[1]+c[2] {
		t.Fatalf("counters unbalanced after the drain: %v", c)
	}
	if got.open() != 0 {
		t.Fatalf("Open = %d after the drain", got.open())
	}
	// The run must have reached the paths it claims to cover.
	var delivered, failed, selfResolved, scheduled int
	for _, l := range want.log {
		switch {
		case strings.Contains(l, "deliver "):
			delivered++
		case strings.Contains(l, "fail tag="):
			failed++
		case strings.Contains(l, "self-resolve") && strings.Contains(l, "true"):
			selfResolved++
		case strings.Contains(l, "resolve scheduled") && strings.Contains(l, "true"):
			scheduled++
		}
	}
	if delivered == 0 || failed == 0 || selfResolved == 0 || scheduled == 0 || c[2] == 0 {
		t.Fatalf("degenerate run: %d deliveries, %d failures, %d mid-retry self-resolutions, %d scheduled resolutions, %d drops",
			delivered, failed, selfResolved, scheduled, c[2])
	}
}

// pingHandler answers every message without a payload with one that has one,
// so deliveries exercise sends made from inside a delivery.
type pingHandler struct{ tr *Transport }

func (pingHandler) Name() string { return "ping" }

func (h pingHandler) Deliver(e *Engine, n *Node, m Message) {
	if m.Payload == nil {
		h.tr.Send(n.ID, m.From, "ping", h)
	}
}

// TestTransportZeroAlloc pins a steady-state send plus its delivery — and the
// reply sent from inside the delivery — at zero heap allocations, at 10 %
// loss. The payloads are values that need no boxing.
func TestTransportZeroAlloc(t *testing.T) {
	e := NewEngine(4, 1)
	tr := NewTransport(e, ConstantLatency(3))
	tr.DropProb = 0.1
	tr.Handle(pingHandler{tr})
	burst := func() {
		for i := 0; i < 64; i++ {
			tr.Send(i%4, (i+1)%4, "ping", nil)
		}
		e.RunEvents(-1)
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	before := tr.Delivered
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("64 sends and their deliveries allocate %.1f times, want 0", allocs)
	}
	if tr.Delivered == before || tr.Dropped == 0 {
		t.Fatalf("degenerate run: delivered %d, dropped %d", tr.Delivered-before, tr.Dropped)
	}
}

// TestReqTableZeroAlloc pins the two steady-state request lifecycles at zero
// heap allocations: add then resolve, and add then expire (through a retry).
// The callbacks are bound once, as protocols bind theirs.
func TestReqTableZeroAlloc(t *testing.T) {
	e := NewEngine(1, 1)
	rt := NewReqTable(e)
	sends, expired := 0, 0
	send := func() { sends++ }
	onExpire := func(uint64) { expired++ }
	resolved := func() {
		for i := 0; i < 32; i++ {
			if !rt.Resolve(rt.Add(10, onExpire)) {
				t.Fatal("Resolve missed a pending request")
			}
		}
	}
	expiring := func() {
		for i := 0; i < 32; i++ {
			rt.AddRetry(int64(1+i%5), 2, send, onExpire)
		}
		e.RunEvents(-1)
	}
	for i := 0; i < 8; i++ {
		resolved()
		expiring()
	}
	if allocs := testing.AllocsPerRun(100, resolved); allocs != 0 {
		t.Fatalf("add + resolve allocates %.1f times per 32 requests, want 0", allocs)
	}
	expired = 0
	if allocs := testing.AllocsPerRun(100, expiring); allocs != 0 {
		t.Fatalf("add + expiry allocates %.1f times per 32 requests, want 0", allocs)
	}
	if expired != 101*32 || rt.Open() != 0 {
		t.Fatalf("expired %d of %d requests, %d open", expired, 101*32, rt.Open())
	}
}
