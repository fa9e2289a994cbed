package sim

import (
	"container/heap"
	"testing"
)

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

// refQueue is the event queue as it was built on container/heap; the typed
// heap must fire and cancel exactly as it does.
type refQueue []*Event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *refQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// TestEventQueueMatchesContainerHeap drives the typed heap and a
// container/heap reference through the same random push/pop/remove sequence
// — times and priorities on a coarse grid, so the sequence number decides
// most comparisons — and requires the same event out of every pop, the same
// heap layout after every operation, and index bookkeeping that always
// points at the event's own slot.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := NewRNG(31)
	var q eventQueue
	var ref refQueue
	var live [][2]*Event // scheduled and not yet popped or removed: {typed, reference}
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(live) == 0:
			tm, prio := int64(rng.Intn(8)), rng.Intn(3)-1
			a := &Event{Time: tm, Priority: prio}
			b := &Event{Time: tm, Priority: prio, seq: q.seq}
			q.push(a)
			heap.Push(&ref, b)
			live = append(live, [2]*Event{a, b})
		case k < 8:
			a, b := q.pop(), heap.Pop(&ref).(*Event)
			if a.seq != b.seq {
				t.Fatalf("op %d: popped seq %d, container/heap pops %d", op, a.seq, b.seq)
			}
			if a.index != -1 || a.Cancelled() {
				t.Fatalf("op %d: popped event has index %d", op, a.index)
			}
			for i, pair := range live {
				if pair[0] == a {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			i := rng.Intn(len(live))
			a, b := live[i][0], live[i][1]
			live = append(live[:i], live[i+1:]...)
			q.remove(a)
			heap.Remove(&ref, b.index)
			if !a.Cancelled() {
				t.Fatalf("op %d: removed event not cancelled", op)
			}
			q.remove(a) // already cancelled: no-op
		}
		if len(q.items) != len(ref) || len(q.items) != len(live) {
			t.Fatalf("op %d: %d queued, container/heap %d, live %d", op, len(q.items), len(ref), len(live))
		}
		for i, e := range q.items {
			if e.seq != ref[i].seq || e.index != i {
				t.Fatalf("op %d slot %d: seq %d index %d, container/heap seq %d", op, i, e.seq, e.index, ref[i].seq)
			}
		}
	}
}
