package par

import "testing"

var benchSink uint64

// spinWork is about 1 µs of dependent integer arithmetic on the two-core
// ledger host (a Xeon VM), which the compiler cannot drop.
func spinWork(x uint64) uint64 {
	x |= 1
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkForkJoin is the cost of one fork around ~2 µs of work: an auto
// two-chunk ForChunks of 1 µs a chunk, and a Task whose helper runs 1 µs
// beside 1 µs of the caller's own, the round look-ahead's shape. On a
// two-core host the budget's one worker takes the second chunk or the helper,
// so the ideal is ~1 µs an op. Back-to-back forks leave the worker no time to
// park; and a goroutine per fork that starts late is simply run by the caller
// when it reaches the join, so ~2 µs of work cannot show a start-up of tens of
// µs. TaskAfterGap can: 100 µs of the caller's own work (about the median gap
// between two forks on the bench workloads), then a 20 µs helper beside 20 µs
// of the caller's. The ideal is 120 µs an op; a helper that starts late adds
// its lag.
func BenchmarkForkJoin(b *testing.B) {
	b.Run("ForChunks", func(b *testing.B) {
		b.ReportAllocs()
		var out [2]uint64
		for i := 0; i < b.N; i++ {
			ForChunks(2, 1, 0, func(lo, hi int) { out[lo] = spinWork(out[lo]) })
		}
		benchSink = out[0] + out[1]
	})
	b.Run("Task", func(b *testing.B) {
		b.ReportAllocs()
		var task Task
		var mine, theirs uint64
		helper := func() { theirs = spinWork(theirs) }
		for i := 0; i < b.N; i++ {
			task.Start(0, helper)
			mine = spinWork(mine)
			task.Wait()
		}
		benchSink = mine + theirs
	})
	b.Run("TaskAfterGap", func(b *testing.B) {
		b.ReportAllocs()
		var task Task
		var mine, theirs uint64
		helper := func() {
			for k := 0; k < 20; k++ {
				theirs = spinWork(theirs)
			}
		}
		for i := 0; i < b.N; i++ {
			for k := 0; k < 100; k++ {
				mine = spinWork(mine)
			}
			task.Start(0, helper)
			for k := 0; k < 20; k++ {
				mine = spinWork(mine)
			}
			task.Wait()
		}
		benchSink = mine + theirs
	})
}
