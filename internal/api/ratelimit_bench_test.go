package api

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// globalMutexLimiter is the pre-gateway limiter design — one mutex and one
// bucket map for all sessions — kept here as the contention baseline the
// sharded limiter is measured against.
type globalMutexLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*rlBucket
}

func (g *globalMutexLimiter) allow(key string, now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.buckets[key]
	if !ok {
		b = &rlBucket{tokens: g.burst, lastFill: now}
		g.buckets[key] = b
	}
	b.tokens += g.rate * now.Sub(b.lastFill).Seconds()
	if b.tokens > g.burst {
		b.tokens = g.burst
	}
	b.lastFill = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// BenchmarkRateLimiterSharded measures Take under concurrent sessions,
// each goroutine a distinct key (a distinct logged-in session).
func BenchmarkRateLimiterSharded(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions-%d", par), func(b *testing.B) {
			rl := NewRateLimiter(1e9, 1e9)
			// Fixed clock, like the baseline below, so the comparison is
			// pure table contention, not time.Now cost.
			now := time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)
			rl.SetNowFunc(func() time.Time { return now })
			var n int64
			var mu sync.Mutex
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				n++
				key := fmt.Sprintf("sess-%d", n)
				mu.Unlock()
				for pb.Next() {
					if !rl.Allow(key) {
						b.Error("denied under huge budget")
						return
					}
				}
			})
		})
	}
}

// BenchmarkRateLimiterGlobalMutex is the same workload through the old
// single-mutex design.
func BenchmarkRateLimiterGlobalMutex(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions-%d", par), func(b *testing.B) {
			gl := &globalMutexLimiter{rate: 1e9, burst: 1e9, buckets: map[string]*rlBucket{}}
			now := time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)
			var n int64
			var mu sync.Mutex
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				n++
				key := fmt.Sprintf("sess-%d", n)
				mu.Unlock()
				for pb.Next() {
					if !gl.allow(key, now) {
						b.Error("denied under huge budget")
						return
					}
				}
			})
		})
	}
}
