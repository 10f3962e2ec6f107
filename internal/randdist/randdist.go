// Package randdist supplies the deterministic random distributions that
// drive the synthetic Periscope population and workloads: log-normal
// broadcast durations with a heavy tail, Poisson arrival processes with
// diurnal rate modulation, and weighted choice. All generators take an
// explicit *rand.Rand so experiments are reproducible from a seed.
package randdist

import (
	"math"
	"math/rand"
)

// LogNormal samples a log-normal variate with the given parameters of the
// underlying normal (mu, sigma in log space).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// LogNormalFromMedianP90 derives (mu, sigma) such that the log-normal has
// the given median and 90th percentile, then samples from it. Convenient
// for calibrating "half the broadcasts are shorter than 4 minutes" style
// constraints.
func LogNormalFromMedianP90(rng *rand.Rand, median, p90 float64) float64 {
	mu, sigma := LogNormalParams(median, p90)
	return LogNormal(rng, mu, sigma)
}

// LogNormalParams converts a (median, p90) pair into log-normal (mu, sigma).
func LogNormalParams(median, p90 float64) (mu, sigma float64) {
	// z(0.90) of the standard normal.
	const z90 = 1.2815515655446004
	mu = math.Log(median)
	sigma = (math.Log(p90) - mu) / z90
	return mu, sigma
}

// BoundedPareto samples a Pareto variate with shape alpha truncated to
// [lo, hi] by inverse-transform sampling. Used for the long broadcast tail
// ("some broadcasts last for over a day").
func BoundedPareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	u := rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Poisson samples a Poisson variate with the given mean using Knuth's
// method for small lambda and a normal approximation for large lambda.
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// DiurnalRate models the paper's observed daily usage pattern: a slump in
// the early hours, a peak in the morning, and an increasing trend towards
// midnight (Fig. 2(b)). hour is the local hour in [0, 24). The returned
// multiplier is in (0, ~1.6] and averages roughly 1 over the day.
func DiurnalRate(hour float64) float64 {
	h := math.Mod(hour, 24)
	if h < 0 {
		h += 24
	}
	// Slump centred near 04:00, morning bump near 09:00, evening ramp
	// rising into midnight. Shapes chosen to match Fig. 2(b) qualitatively.
	slump := -0.65 * gauss(h, 4, 2.4)
	morning := 0.55 * gauss(h, 9, 1.8)
	evening := 0.8 * (0.5 + 0.5*math.Tanh((h-17)/3.0))
	base := 0.75
	v := base + slump + morning + evening
	if v < 0.05 {
		v = 0.05
	}
	return v
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Zero or negative weights get no
// mass; if all weights are <= 0 it returns 0.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}
