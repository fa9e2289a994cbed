package sim

import (
	"container/heap"
	"testing"
)

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	var fired []int
	mk := func(tm int64, prio, id int) *Event {
		return &Event{Time: tm, Priority: prio, Fn: func() { fired = append(fired, id) }}
	}
	q.push(mk(5, 0, 1))
	q.push(mk(3, 0, 2))
	q.push(mk(3, -1, 3)) // same time, higher priority (lower value)
	q.push(mk(3, 0, 4))  // same time+prio as id 2, inserted later
	q.push(mk(1, 9, 5))

	for {
		e := q.pop()
		if e == nil {
			break
		}
		e.Fn()
	}
	want := []int{5, 3, 2, 4, 1}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("order %v, want %v", fired, want)
		}
	}
}

func TestEventQueueRemove(t *testing.T) {
	var q eventQueue
	fired := 0
	e1 := &Event{Time: 1, Fn: func() { fired++ }}
	e2 := &Event{Time: 2, Fn: func() { fired++ }}
	q.push(e1)
	q.push(e2)
	q.remove(e1)
	if !e1.Cancelled() {
		t.Fatal("e1 should be cancelled")
	}
	for {
		e := q.pop()
		if e == nil {
			break
		}
		e.Fn()
	}
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	// Removing an already-fired or cancelled event is a no-op.
	q.remove(e1)
	q.remove(e2)
}

func TestEventQueuePeekTime(t *testing.T) {
	var q eventQueue
	if _, ok := q.peekTime(); ok {
		t.Fatal("peek on empty queue should report !ok")
	}
	q.push(&Event{Time: 9, Fn: func() {}})
	q.push(&Event{Time: 4, Fn: func() {}})
	if tm, ok := q.peekTime(); !ok || tm != 4 {
		t.Fatalf("peek = %d, %v", tm, ok)
	}
	q.pop()
	if tm, ok := q.peekTime(); !ok || tm != 9 {
		t.Fatalf("peek after pop = %d, %v", tm, ok)
	}
}

// TestEventQueueMatchesContainerHeap drives the typed heap and the
// container/heap oracle of FuzzEventQueue through the same random
// push/pop/remove sequence — times and priorities on a coarse grid, so
// insertion order decides most comparisons — and requires the same event out
// of every pop, the same heap layout after every operation, and index
// bookkeeping that always points at the event's own slot.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := NewRNG(31)
	var q eventQueue
	var oracle oracleHeap
	var live []*oracleItem // scheduled, neither popped nor removed
	drop := func(it *oracleItem) {
		for i, x := range live {
			if x == it {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(live) == 0:
			it := &oracleItem{time: int64(rng.Intn(8)), prio: rng.Intn(3) - 1, order: op}
			it.ev = &Event{Time: it.time, Priority: it.prio}
			q.push(it.ev)
			heap.Push(&oracle, it)
			live = append(live, it)
		case k < 8:
			e, want := q.pop(), heap.Pop(&oracle).(*oracleItem)
			if e != want.ev {
				t.Fatalf("op %d: popped (%d, %d), container/heap pops (%d, %d) of op %d",
					op, e.Time, e.Priority, want.time, want.prio, want.order)
			}
			if e.index != -1 || e.Cancelled() {
				t.Fatalf("op %d: popped event has index %d", op, e.index)
			}
			drop(want)
		default:
			it := live[rng.Intn(len(live))]
			drop(it)
			q.remove(it.ev)
			heap.Remove(&oracle, it.index)
			if !it.ev.Cancelled() {
				t.Fatalf("op %d: removed event not cancelled", op)
			}
			q.remove(it.ev) // already cancelled: no-op
		}
		if len(q.items) != len(oracle) || len(q.items) != len(live) {
			t.Fatalf("op %d: %d queued, container/heap %d, live %d", op, len(q.items), len(oracle), len(live))
		}
		for i, e := range q.items {
			if e != oracle[i].ev || e.index != i {
				t.Fatalf("op %d slot %d: event indexed %d, not container/heap's", op, i, e.index)
			}
		}
	}
}
