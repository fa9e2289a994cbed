package sim

import (
	"fmt"
	"testing"
)

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkRNGDerive(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Derive(uint64(i))
	}
}

// BenchmarkBernoulliBits measures the bulk coin draw beside the loop of
// BernoulliThresh calls it replaces, at a part word (n=32, the mean multiset
// of a paper-shaped learning phase), at one word and at a six-word multiset
// (the 64× duplication cap on a six-profile base). p = 0.5 is the predictor's
// worst case for the loop form.
func BenchmarkBernoulliBits(b *testing.B) {
	thresh := Thresh53(0.5)
	for _, n := range []int{32, 64, 384} {
		b.Run(fmt.Sprintf("bulk/n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			dst := make([]uint64, (n+63)/64)
			cnt := 0
			for i := 0; i < b.N; i++ {
				cnt += r.BernoulliBits(dst, n, thresh)
			}
			benchSink = cnt
		})
		b.Run(fmt.Sprintf("loop/n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			idx := make([]int32, n)
			cnt := 0
			for i := 0; i < b.N; i++ {
				c := 0
				for k := 0; k < n; k++ {
					if r.BernoulliThresh(thresh) {
						idx[c] = int32(k)
						c++
					}
				}
				cnt += c
			}
			benchSink = cnt
		})
	}
}

var benchSink int

type nopProto struct{}

func (nopProto) Name() string                    { return "nop" }
func (nopProto) Setup(e *Engine, n *Node) any    { return struct{}{} }
func (nopProto) Round(e *Engine, n *Node, r int) {}

// BenchmarkEngineRound measures the kernel's per-round overhead: shuffling
// and dispatching one protocol over 1000 nodes.
func BenchmarkEngineRound(b *testing.B) {
	e := NewEngine(1000, 1)
	e.Register(nopProto{})
	e.RunRounds(1) // setup outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	e := NewEngine(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(int64(i), 0, func() {})
		if i%64 == 63 {
			e.RunEvents(int64(i))
		}
	}
}

// nopHandler accepts every message and does nothing with it.
type nopHandler struct{}

func (nopHandler) Deliver(e *Engine, n *Node, m Message) {}

// BenchmarkTransportSend measures one message's trip through the transport:
// the send (loss coin, latency, scheduling) and its delivery, drained 64 at a
// time at 10 % loss across 64 nodes.
func BenchmarkTransportSend(b *testing.B) {
	e := NewEngine(64, 1)
	tr := NewTransport(e, ConstantLatency(30))
	tr.DropProb = 0.1
	tr.Handle(nopHandler{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(i&63, (i*7+1)&63, nil)
		if i&63 == 63 {
			e.RunEvents(-1)
		}
	}
}

func BenchmarkRunReplications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunReplications(8, 4, func(rep int) int { return rep })
	}
}
