package cyclon

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

// BenchmarkCyclonRound measures one full Cyclon round over 1000 nodes with
// the paper-scale view (20 entries, 8-entry shuffles).
func BenchmarkCyclonRound(b *testing.B) {
	e := sim.NewEngine(1000, 1)
	e.Register(New(20, 8))
	e.RunRounds(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkMergeFold isolates the view-merge fold on a full view receiving a
// ShuffleLen-deep exchange of entirely new peers — the worst case for
// eviction, where every received entry replaces a sent-away one. The marks
// make each received entry O(1) and the monotone cursor walks the view once,
// so the whole fold is O(view + shuffle).
func BenchmarkMergeFold(b *testing.B) {
	e := sim.NewEngine(1000, 1)
	c := New(20, 8)
	e.Register(c)
	e.RunRounds(1)
	master := make([]Entry, 20)
	for i := range master {
		master[i] = Entry{Peer: i + 1, Age: i}
	}
	sent := make([]Entry, 8)
	for i := range sent {
		sent[i] = Entry{Peer: i + 1, Age: i} // first 8 view entries sent away
	}
	received := make([]Entry, 8)
	for i := range received {
		received[i] = Entry{Peer: 100 + i} // all new to the view, age 0
	}
	v := &View{entries: make([]Entry, 20)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v.entries, master)
		c.merge(e, v, 0, received, sent)
	}
}

func BenchmarkSelectPeer(b *testing.B) {
	e := sim.NewEngine(200, 1)
	e.Register(New(20, 8))
	e.RunRounds(10)
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SelectPeer(e, e.Node(i%200), rng)
	}
}
