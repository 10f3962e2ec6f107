package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEq(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	xs, fs := c.Points()
	if len(xs) != 3 || xs[1] != 2 || !almostEq(fs[1], 0.75, 1e-12) {
		t.Errorf("Points = %v %v", xs, fs)
	}
	if fs[len(fs)-1] != 1 {
		t.Error("last CDF point must be 1")
	}
}

// Property: CDF is monotone and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prevX, prevF := math.Inf(-1), 0.0
		ps := append([]float64(nil), probe...)
		for i := range ps {
			if math.IsNaN(ps[i]) || math.IsInf(ps[i], 0) {
				ps[i] = 0
			}
		}
		// sort the probes via insertion since the list is short
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
		for _, p := range ps {
			f := c.At(p)
			if f < 0 || f > 1 {
				return false
			}
			if p >= prevX && f < prevF {
				return false
			}
			prevX, prevF = p, f
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	b, err := Boxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 9 || b.Min != 1 || b.Max != 100 {
		t.Errorf("N/Min/Max = %d/%v/%v", b.N, b.Min, b.Max)
	}
	if b.Med != 5 {
		t.Errorf("Med = %v, want 5", b.Med)
	}
	if b.OutlierCount != 1 {
		t.Errorf("OutlierCount = %d, want 1 (the 100)", b.OutlierCount)
	}
	if b.WhiskerHi == 100 {
		t.Error("whisker must exclude the outlier")
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if _, err := Boxplot(nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestWelchTTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 400)
	ys := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for i := range ys {
		ys[i] = rng.NormFloat64()
	}
	res, err := WelchTTest(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.01) {
		t.Errorf("same-distribution samples flagged significant: p=%v", res.P)
	}
}

func TestWelchTTestDifferentMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for i := range ys {
		ys[i] = rng.NormFloat64() + 1.0
	}
	res, err := WelchTTest(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.001) {
		t.Errorf("shifted samples not flagged: p=%v", res.P)
	}
	if res.T >= 0 {
		t.Errorf("T = %v, want negative (mean x < mean y)", res.T)
	}
}

func TestWelchKnownValue(t *testing.T) {
	// Hand-computable example.
	// a: mean 2.5, var 5/3. b: mean 5, var 20/3.
	// se = sqrt(5/12 + 20/12) = sqrt(25/12); t = -2.5/se = -sqrt(3).
	// df = (25/12)^2 / ((5/12)^2/3 + (20/12)^2/3) = 625/(425/3) ~ 4.41176.
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.T, -math.Sqrt(3), 1e-9) {
		t.Errorf("T = %v, want -sqrt(3)", res.T)
	}
	if !almostEq(res.DF, 625.0/(425.0/3), 1e-9) {
		t.Errorf("DF = %v, want %v", res.DF, 625.0/(425.0/3))
	}
	// Two-sided p for |t|=1.732 at df~4.41 sits between the df=4 (0.158)
	// and df=5 (0.144) table values.
	if res.P < 0.13 || res.P > 0.17 {
		t.Errorf("P = %v, want in [0.13, 0.17]", res.P)
	}
}

func TestStudentTTableValues(t *testing.T) {
	// Standard t-table critical values: P(T > t_crit) = 0.025.
	cases := []struct{ tcrit, df float64 }{
		{2.776, 4}, {2.228, 10}, {2.042, 30},
	}
	for _, c := range cases {
		p := studentTCDFUpper(c.tcrit, c.df)
		if !almostEq(p, 0.025, 0.0015) {
			t.Errorf("P(T>%v; df=%v) = %v, want ~0.025", c.tcrit, c.df, p)
		}
	}
}

func TestStudentTUpperTail(t *testing.T) {
	// t=0 should give 0.5 for any df.
	if p := studentTCDFUpper(0, 10); !almostEq(p, 0.5, 1e-9) {
		t.Errorf("P(T>0) = %v, want 0.5", p)
	}
	// Large df approximates the normal: P(T>1.96) ~ 0.025.
	if p := studentTCDFUpper(1.96, 1e6); !almostEq(p, 0.025, 1e-3) {
		t.Errorf("P(T>1.96) = %v, want ~0.025", p)
	}
}

// Property: boxplot invariants min<=q1<=med<=q3<=max, whiskers within range.
func TestBoxplotInvariantsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := Boxplot(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Med && b.Med <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskerLo >= b.Min && b.WhiskerHi <= b.Max && b.WhiskerLo <= b.WhiskerHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
