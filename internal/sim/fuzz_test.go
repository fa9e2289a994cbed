package sim

import (
	"container/heap"
	"testing"
)

// oracleItem is one event as the container/heap oracle of the event-queue
// tests sees it: ordered by (time, priority, insertion order), with no field
// of the typed heap's own.
type oracleItem struct {
	time  int64
	prio  int
	order int
	ev    *Event // the typed heap's twin
	index int
}

type oracleHeap []*oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.order < b.order
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *oracleHeap) Push(x any) {
	it := x.(*oracleItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// FuzzEventQueue runs the typed event queue and a container/heap oracle
// through the same push/pop/remove sequence, one operation per input byte:
// the low two bits pick the operation (0, 1 push; 2 pop; 3 remove), the rest
// the event's time and priority on a coarse grid, so ties are common and
// insertion order decides them, or which scheduled event a remove cancels.
// Every pop must return the oracle's event, removes must cancel and stay
// idempotent, and the length and earliest time must agree after every step.
// The seed corpus in testdata/fuzz/FuzzEventQueue covers ties on one
// timestamp, interleaved pushes and pops, remove-heavy runs, pops and
// removes on an empty queue, and a drain in reverse-time order.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var oracle oracleHeap
		var live []*oracleItem // scheduled, neither popped nor removed
		var gone []*Event      // popped or removed
		drop := func(it *oracleItem) {
			for i, x := range live {
				if x == it {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		for step, op := range ops {
			switch op & 3 {
			case 0, 1:
				it := &oracleItem{time: int64(op >> 5), prio: int(op>>2&7) - 3, order: step}
				it.ev = &Event{Time: it.time, Priority: it.prio}
				q.push(it.ev)
				heap.Push(&oracle, it)
				live = append(live, it)
			case 2:
				e := q.pop()
				if len(oracle) == 0 {
					if e != nil {
						t.Fatalf("step %d: pop on an empty queue returned an event", step)
					}
					continue
				}
				want := heap.Pop(&oracle).(*oracleItem)
				if e != want.ev {
					t.Fatalf("step %d: popped (%d, %d), oracle pops (%d, %d) of step %d",
						step, e.Time, e.Priority, want.time, want.prio, want.order)
				}
				if e.index != -1 || e.Cancelled() {
					t.Fatalf("step %d: popped event has index %d", step, e.index)
				}
				drop(want)
				gone = append(gone, e)
			case 3:
				if len(live) == 0 {
					if len(gone) > 0 { // cancelling a fired or cancelled event is a no-op
						e := gone[int(op>>2)%len(gone)]
						was := e.Cancelled()
						q.remove(e)
						if e.Cancelled() != was {
							t.Fatalf("step %d: removing a gone event changed it", step)
						}
					}
					continue
				}
				it := live[int(op>>2)%len(live)]
				q.remove(it.ev)
				heap.Remove(&oracle, it.index)
				if !it.ev.Cancelled() {
					t.Fatalf("step %d: removed event not cancelled", step)
				}
				drop(it)
				gone = append(gone, it.ev)
			}
			if len(q.items) != len(oracle) {
				t.Fatalf("step %d: %d queued, oracle %d", step, len(q.items), len(oracle))
			}
			tm, ok := q.peekTime()
			if ok != (len(oracle) > 0) || ok && tm != oracle[0].time {
				t.Fatalf("step %d: peekTime = %d, %v; oracle %d queued", step, tm, ok, len(oracle))
			}
			for i, e := range q.items {
				if e.index != i {
					t.Fatalf("step %d: slot %d holds an event indexed %d", step, i, e.index)
				}
			}
		}
		// Drain: the rest comes out in the oracle's order.
		for len(oracle) > 0 {
			if e, want := q.pop(), heap.Pop(&oracle).(*oracleItem); e != want.ev {
				t.Fatalf("drain: popped (%d, %d), oracle pops (%d, %d)", e.Time, e.Priority, want.time, want.prio)
			}
		}
		if q.pop() != nil {
			t.Fatal("drain: the queue outlives its oracle")
		}
	})
}
