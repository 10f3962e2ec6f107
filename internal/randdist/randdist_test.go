package randdist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLogNormalParams(t *testing.T) {
	mu, sigma := LogNormalParams(4, 30)
	if math.Exp(mu) != 4 {
		t.Errorf("median from mu = %v, want 4", math.Exp(mu))
	}
	// p90 = exp(mu + z90*sigma)
	p90 := math.Exp(mu + 1.2815515655446004*sigma)
	if math.Abs(p90-30) > 1e-9 {
		t.Errorf("p90 = %v, want 30", p90)
	}
}

func TestLogNormalMedianCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormalFromMedianP90(rng, 4, 30)
	}
	sort.Float64s(xs)
	med := xs[n/2]
	if med < 3.6 || med > 4.4 {
		t.Errorf("sample median = %v, want ~4", med)
	}
	p90 := xs[n*9/10]
	if p90 < 26 || p90 > 34 {
		t.Errorf("sample p90 = %v, want ~30", p90)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := BoundedPareto(rng, 1.2, 10, 2000)
		if v < 10 || v > 2000 {
			t.Fatalf("value %v outside [10,2000]", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{0.5, 3, 20, 120} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.1 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("Poisson with lambda<=0 must be 0")
	}
}

func TestDiurnalShape(t *testing.T) {
	// Paper, Fig 2(b): slump in early hours, morning peak, rise to midnight.
	slump := DiurnalRate(4)
	morning := DiurnalRate(9)
	midnight := DiurnalRate(23.5)
	noon := DiurnalRate(13)
	if !(slump < morning) {
		t.Errorf("slump %v !< morning %v", slump, morning)
	}
	if !(slump < midnight) {
		t.Errorf("slump %v !< midnight %v", slump, midnight)
	}
	if !(noon < midnight) {
		t.Errorf("noon %v !< midnight %v", noon, midnight)
	}
}

func TestDiurnalPositiveProperty(t *testing.T) {
	f := func(h float64) bool {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return true
		}
		v := DiurnalRate(h)
		return v > 0 && v < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[WeightedChoice(rng, []float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Errorf("counts not ordered by weight: %v", counts)
	}
	share2 := float64(counts[2]) / 30000
	if math.Abs(share2-0.7) > 0.03 {
		t.Errorf("weight-7 share = %v, want ~0.7", share2)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if WeightedChoice(rng, []float64{0, 0}) != 0 {
		t.Error("all-zero weights should return 0")
	}
	if WeightedChoice(rng, []float64{-1, 5}) != 1 {
		t.Error("negative weights must get no mass")
	}
}
