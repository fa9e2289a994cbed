package sim

// ReqTable tracks in-flight request/response exchanges for event-driven
// protocols built on a Transport: every outstanding request gets a unique id
// and a deadline scheduled through the engine's event queue. Resolving the
// id before the deadline cancels the timeout; otherwise the expiry callback
// fires exactly once. Protocols use it so that lost messages abort cleanly —
// releasing whatever state (capacity reservations, busy flags) the request
// pinned — instead of leaking it.
//
// Each request is one recycled record whose embedded event is its deadline,
// re-armed on every attempt, so a steady stream of requests allocates
// nothing beyond the callbacks its caller passes in.
type ReqTable struct {
	e       *Engine
	nextID  uint64
	pending map[uint64]*request
	free    *request
}

// request is one outstanding request: its deadline event and what to do when
// the deadline passes. No caller holds its event, so the table recycles it
// once the request fails or is resolved.
type request struct {
	Event
	rt      *ReqTable
	id      uint64
	timeout int64
	left    int // attempts not yet issued, this one included
	send    func()
	onFail  func(id uint64)
	next    *request
}

// NewReqTable builds a request table on engine e.
func NewReqTable(e *Engine) *ReqTable {
	return &ReqTable{e: e, pending: make(map[uint64]*request)}
}

// Add registers a request that expires after timeout virtual time units and
// returns its id. When the deadline passes without Resolve, onExpire(id)
// runs once and the request is removed.
func (rt *ReqTable) Add(timeout int64, onExpire func(id uint64)) uint64 {
	return rt.AddRetry(timeout, 1, nil, onExpire)
}

// AddRetry registers a request that is issued up to attempts times: send (if
// non-nil) fires immediately and again on every timeout until the attempts
// are exhausted, at which point onFail(id) runs once. Resolve cancels the
// pending deadline and stops further retries. Timeouts fire at priority 2 so
// that a response and its deadline sharing a timestamp resolve in the
// response's favour (Transport delivers at priority 1).
func (rt *ReqTable) AddRetry(timeout int64, attempts int, send func(), onFail func(id uint64)) uint64 {
	if timeout <= 0 {
		panic("sim: request timeout must be positive")
	}
	if attempts < 1 {
		attempts = 1
	}
	rt.nextID++
	q := rt.free
	if q != nil {
		rt.free = q.next
	} else {
		q = &request{rt: rt}
		q.rec = q
	}
	q.id, q.timeout, q.left, q.send, q.onFail = rt.nextID, timeout, attempts, send, onFail
	q.arm()
	return q.id
}

// arm issues one attempt: send, then the attempt's deadline. The request is
// (re-)entered in the pending map only after send returns, so a Resolve
// from inside send finds what the table held before the attempt.
func (q *request) arm() {
	if q.send != nil {
		q.send()
	}
	rt := q.rt
	rt.e.schedule(&q.Event, rt.e.now+q.timeout, 2)
	rt.pending[q.id] = q
}

// fire is the deadline: the next attempt, or failure once none is left. On
// failure the record is recycled before onFail runs — its fields copied out
// — so a request onFail adds may reuse it.
func (q *request) fire() {
	if q.left > 1 {
		q.left--
		q.arm()
		return
	}
	rt, id, onFail := q.rt, q.id, q.onFail
	delete(rt.pending, id)
	rt.recycle(q)
	if onFail != nil {
		onFail(id)
	}
}

func (rt *ReqTable) recycle(q *request) {
	q.send, q.onFail = nil, nil
	q.next, rt.free = rt.free, q
}

// Resolve marks the request answered, cancelling its deadline and any
// remaining retries. It reports whether the request was still pending;
// resolving an unknown or already-expired id is a no-op returning false, so
// duplicate or late responses are safe to feed through.
func (rt *ReqTable) Resolve(id uint64) bool {
	q, ok := rt.pending[id]
	if !ok {
		return false
	}
	delete(rt.pending, id)
	if q.index < 0 {
		// Popped and mid-retry (Resolve from inside its own send): arm
		// re-queues and re-registers it when send returns.
		return true
	}
	rt.e.Cancel(&q.Event)
	rt.recycle(q)
	return true
}

// Open returns the number of unresolved requests.
func (rt *ReqTable) Open() int { return len(rt.pending) }
