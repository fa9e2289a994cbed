package sim

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// RNG is a deterministic, splittable pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. Every stochastic component of a
// simulation draws from its own derived stream so that runs are
// bit-reproducible regardless of execution order across replications.
//
// RNG is not safe for concurrent use; derive one stream per goroutine.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is the
// recommended seeder for xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded is NewRNG by value.
func seeded(seed uint64) RNG {
	var r RNG
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a new independent stream keyed by this generator's seed
// material and the given keys. Deriving with the same keys always yields the
// same stream; different key tuples yield (statistically) independent ones.
// The parent generator is not advanced.
func (r *RNG) Derive(keys ...uint64) *RNG {
	d := r.DeriveValue(keys...)
	return &d
}

// DeriveValue is Derive returning the stream by value: a caller that keeps
// the stream in a field or a local re-derives it without allocating.
func (r *RNG) DeriveValue(keys ...uint64) RNG {
	x := r.s0 ^ rotl(r.s2, 17)
	for _, k := range keys {
		x ^= splitmix64(&x) ^ (k * 0xd1342543de82ef95)
		_ = splitmix64(&x)
	}
	return seeded(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**). The state lives in
// four named fields and the rotates are hand-expanded — the same update
// sequence as the textbook array form, phrased to fit the compiler's
// inlining budget: this is the innermost call of every stochastic hot loop
// (one draw per multiset element in the training kernel), where the call
// overhead was measurable in whole-pretrain profiles.
func (r *RNG) Uint64() uint64 {
	x := r.s1 * 5
	result := (x<<7 | x>>57) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = r.s3<<45 | r.s3>>19
	return result
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation. bits.Mul64 is the
	// full 128-bit product in one multiply instruction.
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Multiplying by 0x1p-53 is bit-identical to dividing by 1<<53 — both
	// scale by an exact power of two — and avoids a hardware divide on the
	// hottest draw path.
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bool returns a fair random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Thresh53 converts a Bernoulli success probability into the 53-bit integer
// threshold consumed by Bernoulli and BernoulliBits: the number of draw values k in
// [0, 2⁵³) satisfying k·2⁻⁵³ < p, i.e. ⌈p·2⁵³⌉ clamped to [0, 2⁵³].
//
// The conversion is exactly decision-equivalent to the float compare
// `Float64() < p`: Float64 returns (Uint64()>>11)·2⁻⁵³, the product is exact
// (a 53-bit integer scaled by a power of two), so the compare holds iff the
// integer draw lies below the ceiling of p·2⁵³ — which p*0x1p53 computes
// without rounding for every p in [0, 1], powers of two being exact scale
// factors even for subnormal p. Out-of-range arguments degenerate the same
// way the float compare does: p ≤ 0 and NaN can never win (threshold 0),
// p ≥ 1 always wins (threshold 2⁵³, above every draw).
func Thresh53(p float64) uint64 {
	if !(p > 0) { // p <= 0, or NaN
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	x := p * 0x1p53 // exact: power-of-two scaling, no rounding
	t := uint64(x)  // floor(x); x < 2⁵³ so the conversion is in range
	if float64(t) < x {
		t++ // x was not integral: round the threshold up
	}
	return t
}

// BernoulliBits makes the n draws that n Bernoulli calls would make at the
// probability a Thresh53 threshold t (at most 2⁵³) encodes, stores decision k in bit k&63 of
// dst[k>>6] and returns how many came up true. The ⌈n/64⌉ words it writes are
// overwritten whole (bits at and above n in the last word are zero); later
// words of dst are left alone. It panics if dst is shorter than ⌈n/64⌉ words.
//
// The bulk form exists for loops whose per-draw decision is a coin flip the
// branch predictor cannot learn: the generator state stays in registers for
// the whole batch and each decision is the sign bit of a subtraction, so the
// loop body has no data-dependent branch. Both operands are below 2⁵⁴, so
// (draw − t) wraps to a value with its top bit set exactly when draw < t.
func (r *RNG) BernoulliBits(dst []uint64, n int, t uint64) int {
	dst = dst[:(n+63)>>6]
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	cnt := 0
	for w := range dst {
		span := n - w<<6
		if span > 64 {
			span = 64
		}
		dst[w], s0, s1, s2, s3 = drawWord(s0, s1, s2, s3, span, t)
		cnt += bits.OnesCount64(dst[w])
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return cnt
}

// drawWord is BernoulliBits' draw loop for one word: span ≤ 64 threshold
// draws from the xoshiro state (s0, s1, s2, s3), returned as bits 0..span−1
// of word together with the advanced state. It is a function of its own so
// that the loop's live values — the state, the word, the threshold and the
// trip count — fit the register file: inlined into the per-word loop, the
// word and s1 were spilled to the stack on every draw.
func drawWord(s0, s1, s2, s3 uint64, span int, t uint64) (word, n0, n1, n2, n3 uint64) {
	// Decisions enter at the top bit and move down one place per draw, so
	// the loop needs no variable shift; a short word is moved down the rest
	// of the way afterwards.
	for b := 0; b < span; b++ {
		x := s1 * 5
		draw := (x<<7 | x>>57) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = s3<<45 | s3>>19
		word = word>>1 | (draw>>11-t)&(1<<63)
	}
	return word >> (uint(64-span) & 63), s0, s1, s2, s3
}

// Bernoulli returns true with probability p. The integer-threshold compare is
// bit-identical, draw for draw, to the former `Float64() < p` (see Thresh53)
// while keeping the float convert/multiply off the hottest draw path.
func (r *RNG) Bernoulli(p float64) bool { return r.Uint64()>>11 < Thresh53(p) }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(nil, n)
}

// PermInto is Perm into a caller-owned buffer: it returns a pseudo-random
// permutation of [0, n) in dst's backing array (grown only when too small),
// consuming exactly the draws Perm consumes. Callers on hot paths reuse one
// buffer across rounds to keep shuffling allocation-free.
func (r *RNG) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// Shuffle randomises the order of n elements using swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pareto returns a Pareto(shape, scale) variate: heavy-tailed, never below
// scale.
func (r *RNG) Pareto(shape, scale float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return scale / math.Pow(u, 1/shape)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z) for a standard normal Z.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// BoundRNG is a lazily derived random stream bound to the engine it was
// derived from. Protocol values embed one instead of caching a bare *RNG so
// that registering the same protocol value on a second engine re-derives the
// stream from that engine's root — a protocol that silently kept the first
// engine's stream would break (seed, replication) determinism in sweeps that
// reuse protocol values. The zero value is ready for use.
type BoundRNG struct {
	e   *Engine
	rng *RNG
}

// For returns the stream derived from e's root with the given keys, deriving
// it on first use and re-deriving whenever e differs from the engine of the
// previous call. Derivation does not advance the engine's root, so the
// returned stream is identical no matter when in the run it is first
// requested.
func (b *BoundRNG) For(e *Engine, keys ...uint64) *RNG {
	if b.e != e {
		b.e, b.rng = e, e.RNG().Derive(keys...)
	}
	return b.rng
}

// BoundNodeRNG is the per-node counterpart of BoundRNG: one independent
// stream per node, each derived from the engine's root keyed by (keys...,
// node ID). Protocols that declare sim.ParallelRound draw from it instead of
// a single shared stream — a shared stream's values depend on node visit
// order, which a fork-join pass cannot (and must not) fix, whereas per-node
// streams make every node's randomness a function of the seed and the node
// alone. The zero value is ready for use.
//
// For is safe for concurrent use by the engine's round workers. The keys
// must be the same on every call for a given BoundNodeRNG value; the family
// is derived once per engine, on first use.
type BoundNodeRNG struct {
	binding atomic.Pointer[nodeStreams]
	mu      sync.Mutex
}

type nodeStreams struct {
	e    *Engine
	rngs []*RNG
}

// For returns node id's stream on engine e, deriving the whole per-node
// family on first use and re-deriving when e differs from the previous
// engine. Derivation reads but never advances the engine root, so the family
// is identical no matter when in the run — or from which worker — it is
// first requested.
func (b *BoundNodeRNG) For(e *Engine, id int, keys ...uint64) *RNG {
	if s := b.binding.Load(); s != nil && s.e == e {
		return s.rngs[id]
	}
	return b.bind(e, keys).rngs[id]
}

// bind builds (or re-builds) the per-node stream family for e. Concurrent
// first calls race benignly: derivation is deterministic and side-effect
// free, and the mutex ensures only one goroutine constructs the family.
func (b *BoundNodeRNG) bind(e *Engine, keys []uint64) *nodeStreams {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.binding.Load(); s != nil && s.e == e {
		return s
	}
	s := &nodeStreams{e: e, rngs: make([]*RNG, e.N())}
	nodeKeys := make([]uint64, len(keys)+1)
	copy(nodeKeys, keys)
	for i := range s.rngs {
		nodeKeys[len(keys)] = uint64(i)
		s.rngs[i] = e.RNG().Derive(nodeKeys...)
	}
	b.binding.Store(s)
	return s
}
