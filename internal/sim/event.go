package sim

// Event is a unit of scheduled work in the event-driven layer of the kernel.
// Events fire in (Time, Priority, sequence) order, where the monotonically
// increasing sequence number breaks ties deterministically in insertion
// order.
type Event struct {
	// Time is the virtual timestamp at which the event fires.
	Time int64
	// Priority orders events that share a timestamp; lower fires first.
	Priority int
	// Fn is invoked when the event fires.
	Fn func()

	// rec, when set, fires instead of Fn: the event is embedded in a record
	// the kernel owns and recycles (a Transport delivery, a ReqTable
	// deadline), which no caller ever holds a pointer to.
	rec record

	seq   uint64
	index int // heap index; -1 once popped, -2 once cancelled
}

// record is a kernel-owned event payload with its own firing logic. It runs
// in place of a heap closure, so scheduling one allocates nothing once the
// owner's free list is warm.
type record interface{ fire() }

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

// run fires a popped event.
func (e *Event) run() {
	if e.rec != nil {
		e.rec.fire()
		return
	}
	e.Fn()
}

// eventQueue is a binary min-heap of events in strict (Time, Priority, seq)
// order. It is typed rather than built on container/heap — whose Push/Pop
// box through any and whose Less/Swap dispatch through an interface on every
// sift step — but sifts exactly as container/heap does; sequence numbers are
// unique, so the pop order is the total order either way.
type eventQueue struct {
	items []*Event
	seq   uint64
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

// up sifts item j toward the root.
func (q *eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts item i toward the leaves of the first n items and reports
// whether it moved.
func (q *eventQueue) down(i, n int) bool {
	start := i
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > start
}

// push schedules e.
func (q *eventQueue) push(e *Event) {
	e.seq = q.seq
	q.seq++
	e.index = len(q.items)
	q.items = append(q.items, e)
	q.up(e.index)
}

// detach removes item i — swapped to the tail, the heap order of the rest
// restored — and returns it.
func (q *eventQueue) detach(i int) *Event {
	n := len(q.items) - 1
	if i != n {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	e := q.items[n]
	q.items[n] = nil
	q.items = q.items[:n]
	return e
}

// pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) pop() *Event {
	if len(q.items) == 0 {
		return nil
	}
	e := q.detach(0)
	e.index = -1
	return e
}

// remove cancels a scheduled event. It is a no-op if the event already fired.
func (q *eventQueue) remove(e *Event) {
	if e.index < 0 {
		return
	}
	q.detach(e.index)
	e.index = -2
}

// peekTime returns the timestamp of the earliest pending event; ok is false
// when the queue is empty.
func (q *eventQueue) peekTime() (t int64, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].Time, true
}
