// Package stats provides the small statistical toolkit used throughout the
// GLAP reproduction: summary statistics, percentiles, cosine similarity
// between Q-tables, histograms, and the normality diagnostics used to check
// Theorem 1 (convergence of gossip-aggregated Q-values to a normal
// distribution).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (division by n), or 0 for
// fewer than one sample.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Summary holds the distribution summary the paper reports for per-round
// metrics: the median plus the 10th and 90th percentiles across repetitions.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P10    float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary over xs. It returns a zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		StdDev: StdDev(sorted),
		Min:    sorted[0],
		P10:    percentileSorted(sorted, 10),
		Median: percentileSorted(sorted, 50),
		P90:    percentileSorted(sorted, 90),
		Max:    sorted[len(sorted)-1],
	}
}

// Cosine returns the cosine similarity of two equal-length vectors. It
// returns 0 when either vector has zero norm and an error when the lengths
// differ.
func Cosine(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: cosine of vectors with different lengths")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb)), nil
}

// CosineAligned returns the cosine similarity of two aligned equal-length
// dense vectors, 0 when either has zero norm. It is the allocation-free hot
// path of the convergence instrumentation: unlike Cosine it neither checks
// lengths nor returns an error, so callers must pass slices laid out over
// the same index space (it panics on a shorter b, like any slice misuse).
func CosineAligned(a, b []float64) float64 {
	var dot, na, nb float64
	for i, va := range a {
		vb := b[i]
		dot += va * vb
		na += va * va
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// CosineMaps computes cosine similarity between two sparse vectors
// represented as maps. Keys missing from one map contribute a zero
// coordinate. Identical maps yield exactly 1 (up to float rounding).
func CosineMaps[K comparable](a, b map[K]float64) float64 {
	var dot, na, nb float64
	for k, va := range a {
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Skewness returns the sample skewness (g1) of xs.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the excess kurtosis (g2) of xs; 0 for a normal
// distribution.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// JarqueBera returns the Jarque-Bera normality test statistic for xs. Under
// normality the statistic is asymptotically chi-squared with 2 degrees of
// freedom; values below ~5.99 fail to reject normality at the 5% level.
func JarqueBera(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	s := Skewness(xs)
	k := Kurtosis(xs)
	return n / 6 * (s*s + k*k/4)
}

// Histogram bins xs into nbins equal-width bins spanning [min, max] and
// returns the bin counts together with the bin edges (nbins+1 values). A
// sample equal to max lands in the last bin.
func Histogram(xs []float64, nbins int) (counts []int, edges []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if nbins <= 0 {
		return nil, nil, errors.New("stats: nbins must be positive")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == hi {
		hi = lo + 1
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		bin := int((x - lo) / width)
		if bin >= nbins {
			bin = nbins - 1
		}
		counts[bin]++
	}
	return counts, edges, nil
}

// Welford is an online mean/variance accumulator (Welford's algorithm). The
// zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Autocorrelation returns the lag-k autocorrelation of xs, used to validate
// that generated traces carry the strong temporal correlation seen in the
// Google cluster data.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean of xs (1.96·s/√n). It returns 0 for fewer than two
// samples; for the small replication counts used here it slightly
// understates the t-based interval, which is acceptable for the
// order-of-magnitude comparisons the harness prints.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}
