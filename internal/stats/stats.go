// Package stats provides the descriptive and inferential statistics used by
// the measurement analyses: empirical CDFs, quantiles, boxplot summaries,
// and Welch's unequal-variance t-test (the paper uses Welch's t-test to
// compare the Galaxy S3 and S4 datasets).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by functions that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Min returns the smallest element. It panics on empty input.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element. It panics on empty input.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns (x, F(x)) pairs suitable for plotting: one point per
// distinct sample value. The slices are freshly allocated.
func (c *CDF) Points() (xs, fs []float64) {
	n := len(c.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		xs = append(xs, c.sorted[i])
		fs = append(fs, float64(i+1)/float64(n))
	}
	return xs, fs
}

// BoxplotStats is the five-number summary (plus mean and count) drawn as one
// box in the paper's boxplot figures.
type BoxplotStats struct {
	N            int
	Min, Max     float64
	Q1, Med, Q3  float64
	Mean         float64
	WhiskerLo    float64 // lowest point within 1.5*IQR of Q1
	WhiskerHi    float64 // highest point within 1.5*IQR of Q3
	OutlierCount int
}

// Boxplot computes the boxplot summary of xs using the 1.5*IQR whisker rule.
func Boxplot(xs []float64) (BoxplotStats, error) {
	if len(xs) == 0 {
		return BoxplotStats{}, ErrNoData
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b := BoxplotStats{
		N:    len(s),
		Min:  s[0],
		Max:  s[len(s)-1],
		Q1:   quantileSorted(s, 0.25),
		Med:  quantileSorted(s, 0.5),
		Q3:   quantileSorted(s, 0.75),
		Mean: Mean(s),
	}
	iqr := b.Q3 - b.Q1
	lo, hi := b.Q1-1.5*iqr, b.Q3+1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, x := range s {
		if x >= lo && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hi && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < lo || x > hi {
			b.OutlierCount++
		}
	}
	return b, nil
}

// TTestResult reports the outcome of Welch's two-sample t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// Significant reports whether the difference is significant at level alpha.
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

// WelchTTest performs Welch's unequal-variance two-sample t-test on xs and
// ys and returns the two-sided p-value. This is the test the paper applies
// to decide whether the Galaxy S3 and S4 datasets can be pooled.
func WelchTTest(xs, ys []float64) (TTestResult, error) {
	if len(xs) < 2 || len(ys) < 2 {
		return TTestResult{}, ErrNoData
	}
	mx, my := Mean(xs), Mean(ys)
	vx, vy := Variance(xs), Variance(ys)
	nx, ny := float64(len(xs)), float64(len(ys))
	sx, sy := vx/nx, vy/ny
	se := math.Sqrt(sx + sy)
	if se == 0 {
		if mx == my {
			return TTestResult{T: 0, DF: nx + ny - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(1), DF: nx + ny - 2, P: 0}, nil
	}
	t := (mx - my) / se
	df := (sx + sy) * (sx + sy) / (sx*sx/(nx-1) + sy*sy/(ny-1))
	p := 2 * studentTCDFUpper(math.Abs(t), df)
	return TTestResult{T: t, DF: df, P: p}, nil
}

// studentTCDFUpper returns P(T > t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTCDFUpper(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes 6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
