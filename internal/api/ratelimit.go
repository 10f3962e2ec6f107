package api

import (
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter is a non-blocking per-key token bucket: each API session
// (logged-in user) gets its own allowance, which is why the crawler ran
// four emulators "with different user logged in (avoids rate limiting)".
//
// The bucket table is sharded: a key hashes to one of rlShards shards,
// each with its own mutex and map, so concurrent sessions only contend
// when they land on the same shard — the limiter no longer serializes all
// API traffic through one global lock. Buckets idle longer than rlIdleTTL
// are evicted by an amortized per-shard sweep piggybacked on Take, so the
// table stays bounded over long campaigns without a background goroutine
// (which would not see virtual-time clocks anyway).
type RateLimiter struct {
	rate  float64 // requests per second
	burst float64
	nowFn atomic.Pointer[func() time.Time]

	shards [rlShards]rlShard
}

const (
	// rlShards is the bucket-table shard count, a power of two so a key's
	// hash selects its shard by mask.
	rlShards = 32
	// rlIdleTTL evicts buckets idle this long. Eviction cannot be
	// disabled: the table would grow with every session ever seen.
	rlIdleTTL = 5 * time.Minute
)

type rlShard struct {
	mu        sync.Mutex
	buckets   map[string]*rlBucket
	lastSweep time.Time
	// Pad shards apart so neighbouring locks do not share a cache line.
	_ [64]byte
}

type rlBucket struct {
	tokens   float64
	lastFill time.Time
}

// NewRateLimiter creates a limiter with the given sustained per-key rate
// (req/s) and bucket depth.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	rl := &RateLimiter{rate: rate, burst: burst}
	for i := range rl.shards {
		rl.shards[i].buckets = map[string]*rlBucket{}
	}
	now := time.Now
	rl.nowFn.Store(&now)
	return rl
}

// SetNowFunc overrides the clock (virtual-time tests and the population's
// simulated clock). Safe to call concurrently with Take.
func (rl *RateLimiter) SetNowFunc(f func() time.Time) { rl.nowFn.Store(&f) }

func (rl *RateLimiter) now() time.Time { return (*rl.nowFn.Load())() }

func hashKey(key string) uint32 {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// Allow reports whether the key may issue one more request now.
func (rl *RateLimiter) Allow(key string) bool {
	ok, _ := rl.Take(key)
	return ok
}

// Take attempts to consume one token for key. When denied it also returns
// how long the caller must wait for the next token — the Retry-After
// value the 429 response carries.
func (rl *RateLimiter) Take(key string) (bool, time.Duration) {
	now := rl.now()
	sh := &rl.shards[hashKey(key)&(rlShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[key]
	if !ok {
		b = &rlBucket{tokens: rl.burst, lastFill: now}
		sh.buckets[key] = b
	}
	if dt := now.Sub(b.lastFill); dt > 0 {
		b.tokens += rl.rate * dt.Seconds()
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
	}
	b.lastFill = now
	if sh.lastSweep.IsZero() {
		sh.lastSweep = now
	} else if now.Sub(sh.lastSweep) >= rlIdleTTL {
		sh.sweep(now)
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rl.rate <= 0 {
		return false, rlIdleTTL
	}
	return false, time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
}

// sweep drops the shard's idle buckets; the caller holds sh.mu.
func (sh *rlShard) sweep(now time.Time) {
	for k, b := range sh.buckets {
		if now.Sub(b.lastFill) >= rlIdleTTL {
			delete(sh.buckets, k)
		}
	}
	sh.lastSweep = now
}

// Len returns the current bucket count across all shards.
func (rl *RateLimiter) Len() int {
	n := 0
	for i := range rl.shards {
		sh := &rl.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}
