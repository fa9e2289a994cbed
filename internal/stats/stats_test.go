package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestMeanBasics(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
	almost(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12, "mean")
	almost(t, Mean([]float64{-5}), -5, 1e-12, "single")
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Variance(xs), 4, 1e-12, "variance")
	almost(t, StdDev(xs), 2, 1e-12, "stddev")
	if Variance(nil) != 0 {
		t.Fatal("variance of empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	p, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, p, 35, 1e-12, "median")
	p, _ = Percentile(xs, 0)
	almost(t, p, 15, 1e-12, "p0")
	p, _ = Percentile(xs, 100)
	almost(t, p, 50, 1e-12, "p100")
	// Interpolation between ranks.
	p, _ = Percentile([]float64{10, 20}, 25)
	almost(t, p, 12.5, 1e-12, "p25 interp")

	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Fatal("expected error for negative percentile")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("expected error for percentile > 100")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	almost(t, s.Median, 3, 1e-12, "median")
	almost(t, s.Mean, 3, 1e-12, "mean")
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestSummaryPercentileOrder(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P10 && s.P10 <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosine(t *testing.T) {
	got, err := Cosine([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 0, 1e-12, "orthogonal")
	got, _ = Cosine([]float64{1, 2, 3}, []float64{2, 4, 6})
	almost(t, got, 1, 1e-12, "parallel")
	got, _ = Cosine([]float64{1, 1}, []float64{-1, -1})
	almost(t, got, -1, 1e-12, "antiparallel")
	got, _ = Cosine([]float64{0, 0}, []float64{1, 2})
	if got != 0 {
		t.Fatalf("zero vector cosine = %g, want 0", got)
	}
	if _, err := Cosine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestCosineSelfIsOne(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		c, err := Cosine(xs, xs)
		if err != nil {
			return false
		}
		nonZero := false
		for _, x := range xs {
			if x != 0 {
				nonZero = true
			}
		}
		if !nonZero {
			return c == 0
		}
		return math.Abs(c-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineMaps(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	b := map[string]float64{"x": 1, "y": 2}
	almost(t, CosineMaps(a, b), 1, 1e-12, "identical maps")

	c := map[string]float64{"z": 5}
	almost(t, CosineMaps(a, c), 0, 1e-12, "disjoint maps")

	if CosineMaps(map[string]float64{}, a) != 0 {
		t.Fatal("empty map should give 0")
	}
}

func TestCosineMapsRange(t *testing.T) {
	// Restrict coordinates to |v| < 1e150 so the squared norms stay finite;
	// Q-values in this codebase are O(100).
	f := func(a, b map[int8]float64) bool {
		for k, v := range a {
			if math.IsNaN(v) || math.Abs(v) >= 1e150 {
				delete(a, k)
			}
		}
		for k, v := range b {
			if math.IsNaN(v) || math.Abs(v) >= 1e150 {
				delete(b, k)
			}
		}
		c := CosineMaps(a, b)
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSkewnessKurtosis(t *testing.T) {
	// Symmetric data: zero skew.
	sym := []float64{-2, -1, 0, 1, 2}
	almost(t, Skewness(sym), 0, 1e-12, "symmetric skew")
	// Uniform-ish data has negative excess kurtosis.
	if Kurtosis(sym) >= 0 {
		t.Fatalf("expected negative excess kurtosis, got %g", Kurtosis(sym))
	}
	// Right-skewed data.
	if Skewness([]float64{1, 1, 1, 1, 10}) <= 0 {
		t.Fatal("expected positive skew")
	}
	if Skewness([]float64{5}) != 0 || Kurtosis(nil) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestJarqueBera(t *testing.T) {
	// A near-normal sample should have a small JB statistic; a
	// heavy-tailed one should be large.
	var normal, heavy []float64
	x := 0.5
	for i := 0; i < 2000; i++ {
		// Deterministic quasi-normal via sum of 12 uniforms (Irwin-Hall).
		s := 0.0
		for j := 0; j < 12; j++ {
			x = math.Mod(x*997+0.12345+float64(j)*0.001, 1)
			s += x
		}
		normal = append(normal, s-6)
		if i%100 == 0 {
			heavy = append(heavy, 50)
		} else {
			heavy = append(heavy, 0)
		}
	}
	if jb := JarqueBera(normal); jb > 20 {
		t.Fatalf("JB of quasi-normal too large: %g", jb)
	}
	if jb := JarqueBera(heavy); jb < 100 {
		t.Fatalf("JB of heavy-tailed too small: %g", jb)
	}
	if JarqueBera([]float64{1, 2}) != 0 {
		t.Fatal("JB of tiny sample should be 0")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A constant series has zero denominator -> 0 by convention.
	if Autocorrelation([]float64{1, 1, 1}, 1) != 0 {
		t.Fatal("constant series should give 0")
	}
	// A strongly trending series has high lag-1 autocorrelation.
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, float64(i))
	}
	if ac := Autocorrelation(xs, 1); ac < 0.9 {
		t.Fatalf("trend autocorrelation too small: %g", ac)
	}
	// Alternating series: strongly negative.
	var alt []float64
	for i := 0; i < 100; i++ {
		alt = append(alt, float64(i%2))
	}
	if ac := Autocorrelation(alt, 1); ac > -0.9 {
		t.Fatalf("alternating autocorrelation too large: %g", ac)
	}
	// Invalid lags.
	if Autocorrelation(xs, 0) != 0 || Autocorrelation(xs, len(xs)) != 0 {
		t.Fatal("invalid lags should give 0")
	}
}

func TestMedian(t *testing.T) {
	m, err := Median([]float64{9, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 5, 1e-12, "odd median")
	m, _ = Median([]float64{1, 2, 3, 4})
	almost(t, m, 2.5, 1e-12, "even median")
}
