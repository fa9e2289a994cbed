package sim

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	nonzero := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestDeriveDeterministicAndIndependent(t *testing.T) {
	root := NewRNG(7)
	a := root.Derive(1, 2)
	b := root.Derive(1, 2)
	c := root.Derive(1, 3)
	if v := root.DeriveValue(1, 2); v != *a {
		t.Fatal("DeriveValue and Derive disagree on the same keys")
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same keys should derive same stream")
		}
	}
	a2 := NewRNG(7).Derive(1, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams with different keys overlap: %d matches", same)
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	_ = a.Derive(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d has fraction %g", i, frac)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance too far from 1: %g", variance)
	}
}

func TestParetoAndLogNormalPositive(t *testing.T) {
	r := NewRNG(41)
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(2, 0.5); v < 0.5 {
			t.Fatalf("Pareto below scale: %g", v)
		}
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal not positive: %g", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(43)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// mul64 is the portable 128-bit product Intn used before bits.Mul64: four
// 32-bit partial products. It stays here as the oracle the draw-sequence test
// replays.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// refIntn is Intn over mul64 — the formula every pinned fingerprint was drawn
// with.
func refIntn(r *RNG, n int) int {
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

func TestMul64(t *testing.T) {
	for _, c := range []struct{ a, b, hi, lo uint64 }{
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{2, 3, 0, 6},
		{1 << 63, 2, 1, 0},
		{math.MaxUint64, 1, 0, math.MaxUint64},
	} {
		if hi, lo := mul64(c.a, c.b); hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
		if hi, lo := bits.Mul64(c.a, c.b); hi != c.hi || lo != c.lo {
			t.Fatalf("bits.Mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
	if err := quick.Check(func(a, b uint64) bool {
		h1, l1 := mul64(a, b)
		h2, l2 := bits.Mul64(a, b)
		return h1 == h2 && l1 == l2
	}, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
}

// TestIntnMatchesPortableProduct replays Intn against refIntn draw for draw:
// the same values and the same stream position (a rejection consumes a draw,
// so a differing retry would shift everything after it). The bounds cover the
// edges of Lemire's rejection — 1, powers of two and their neighbours, where
// the threshold −n mod n changes shape, and MaxInt, where nearly half the
// draws are rejected — plus random bounds of every magnitude.
func TestIntnMatchesPortableProduct(t *testing.T) {
	ns := []int{1, 2, 3, math.MaxInt, math.MaxInt - 1}
	for k := 2; k < 63; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	pick := NewRNG(77)
	for i := 0; i < 200; i++ {
		ns = append(ns, int(pick.Uint64()>>(1+pick.Uint64()%63)))
	}
	for _, n := range ns {
		if n <= 0 {
			continue
		}
		got, want := NewRNG(uint64(n)), NewRNG(uint64(n))
		for i := 0; i < 500; i++ {
			if g, w := got.Intn(n), refIntn(want, n); g != w {
				t.Fatalf("n=%d draw %d: Intn %d, portable product %d", n, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d: streams out of step after 500 draws", n)
		}
	}
}

func TestBoundRNGRebindsPerEngine(t *testing.T) {
	e1 := NewEngine(4, 9)
	e2 := NewEngine(4, 9)
	var b BoundRNG
	// Same engine: cached stream, draws advance.
	r := b.For(e1, 0xbeef)
	first := r.Uint64()
	if b.For(e1, 0xbeef) != r {
		t.Fatalf("For on the same engine must return the cached stream")
	}
	// New engine: fresh derivation, independent of draws on the old stream.
	got := b.For(e2, 0xbeef).Uint64()
	if got != first {
		t.Fatalf("rebound stream diverged: got %d want %d", got, first)
	}
	// Back to the first engine: re-derived, so the earlier draw is replayed.
	if back := b.For(e1, 0xbeef).Uint64(); back != first {
		t.Fatalf("re-derived stream diverged: got %d want %d", back, first)
	}
}

// BernoulliThresh is one Bernoulli draw against a precomputed Thresh53
// threshold, consuming exactly one Uint64: the per-draw reference
// BernoulliBits must reproduce bit for bit.
func (r *RNG) BernoulliThresh(t uint64) bool { return r.Uint64()>>11 < t }

// floatBernoulli is the retired float-compare draw, kept verbatim as the
// reference the integer-threshold Bernoulli must reproduce bit-identically:
// same single Uint64 consumed, same decision for every (draw, p) pair.
func floatBernoulli(r *RNG, p float64) bool { return r.Float64() < p }

// TestBernoulliThresholdEquivalence sweeps p over a dense grid plus
// adversarial values and asserts the threshold compare is decision-identical
// to `Float64() < p` over pinned RNG streams — the draw-sequence contract
// that the learning kernel's differential reference (and every golden
// fingerprint) relies on.
func TestBernoulliThresholdEquivalence(t *testing.T) {
	ps := []float64{
		0, 1, -1, -0.5, 2, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64,       // subnormal: threshold must still round up to 1
		0x1p-53, 0x1p-53 * 2, 0x1p-53 * 3, // exactly k·2⁻⁵³: draw k must lose, k-1 win
		math.Nextafter(0x1p-53, 0),          // just below 2⁻⁵³
		math.Nextafter(0x1p-53, 1),          // just above 2⁻⁵³
		math.Nextafter(3*0x1p-53, 0),        // just below 3·2⁻⁵³
		math.Nextafter(3*0x1p-53, 1),        // just above
		1 - 0x1p-53, math.Nextafter(1.0, 0), // largest sub-1 probabilities
		0.15, 0.15 + 0.7*0.5, // the trainOnce pSender range
	}
	for p := 0.0; p <= 1.0; p += 1.0 / 512 {
		ps = append(ps, p)
	}
	for _, p := range ps {
		ref := NewRNG(101)
		got := NewRNG(101)
		thresh := Thresh53(p)
		for i := 0; i < 2000; i++ {
			want := floatBernoulli(ref, p)
			if g := got.Bernoulli(p); g != want {
				t.Fatalf("Bernoulli(%v) draw %d: got %v, float compare %v", p, i, g, want)
			}
			// The hoisted-threshold form must consume and decide identically.
			ref2, got2 := NewRNG(uint64(i)), NewRNG(uint64(i))
			if w, g := floatBernoulli(ref2, p), got2.BernoulliThresh(thresh); w != g {
				t.Fatalf("BernoulliThresh(Thresh53(%v)) seed %d: got %v, want %v", p, i, g, w)
			}
		}
	}
}

// TestBernoulliBitsMatchesThresh pins the bulk draw against the call it
// batches: bit k is the k-th BernoulliThresh decision, the returned count is
// the number of true decisions, words past ⌈n/64⌉ are untouched, and the
// stream stands where n single draws would have left it.
func TestBernoulliBitsMatchesThresh(t *testing.T) {
	ps := []float64{
		0, 1, -1, 2, math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-1040, // subnormals: threshold 1
		0x1p-53, math.Nextafter(0x1p-53, 1),
		0.15, 0.5, 0.85, math.Nextafter(1.0, 0),
	}
	for p := 0.0; p <= 1.0; p += 1.0 / 16 {
		ps = append(ps, p)
	}
	const sentinel = 0xa5a5a5a5a5a5a5a5
	for _, n := range []int{0, 1, 32, 63, 64, 65, 384} {
		for pi, p := range ps {
			thresh := Thresh53(p)
			seed := uint64(1000*n + pi)
			ref, got := NewRNG(seed), NewRNG(seed)
			words := (n + 63) / 64
			dst := make([]uint64, words+1)
			for i := range dst {
				dst[i] = sentinel
			}
			cnt := got.BernoulliBits(dst, n, thresh)
			want := 0
			for k := 0; k < n; k++ {
				w := ref.BernoulliThresh(thresh)
				if w {
					want++
				}
				if g := dst[k>>6]>>(uint(k)&63)&1 == 1; g != w {
					t.Fatalf("n=%d p=%v: bit %d = %v, BernoulliThresh %v", n, p, k, g, w)
				}
			}
			if cnt != want {
				t.Fatalf("n=%d p=%v: count %d, want %d", n, p, cnt, want)
			}
			if n&63 != 0 && dst[words-1]>>(uint(n)&63) != 0 {
				t.Fatalf("n=%d p=%v: bits at or above n set in the last word: %#x", n, p, dst[words-1])
			}
			if dst[words] != sentinel {
				t.Fatalf("n=%d p=%v: word %d past the batch was written", n, p, words)
			}
			if *got != *ref {
				t.Fatalf("n=%d p=%v: stream position diverged after the batch", n, p)
			}
		}
	}
}

// TestThresh53Exact pins the threshold conversion on the boundary values the
// equivalence argument hinges on.
func TestThresh53Exact(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0, 0},
		{-3, 0},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{1, 1 << 53},
		{2, 1 << 53},
		{math.Inf(1), 1 << 53},
		{0.5, 1 << 52},
		{0.25, 1 << 51},
		{0x1p-53, 1},                     // exactly one winning draw (k=0)
		{math.Nextafter(0x1p-53, 0), 1},  // still only k=0 wins
		{math.SmallestNonzeroFloat64, 1}, // any p > 0 lets k=0 win
		{math.Nextafter(0x1p-53, 1), 2},  // k=1 now wins too
		{3 * 0x1p-53, 3},
		{1 - 0x1p-53, 1<<53 - 1},            // every draw but the top wins
		{math.Nextafter(1.0, 0), 1<<53 - 1}, // largest sub-1 float: 1-2⁻⁵³
	}
	for _, c := range cases {
		if got := Thresh53(c.p); got != c.want {
			t.Fatalf("Thresh53(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}
