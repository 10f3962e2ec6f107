package api

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// manualClock is a mutable test clock for the limiter.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestRateLimiterPerKeyIsolation(t *testing.T) {
	rl := NewRateLimiter(1, 2)
	for i := 0; i < 2; i++ {
		if !rl.Allow("a") {
			t.Fatalf("a denied within burst (i=%d)", i)
		}
	}
	if rl.Allow("a") {
		t.Error("a allowed beyond burst")
	}
	if !rl.Allow("b") {
		t.Error("b denied despite fresh bucket")
	}
}

func TestRateLimiterRefill(t *testing.T) {
	clk := newManualClock()
	rl := NewRateLimiter(2, 1)
	rl.SetNowFunc(clk.Now)
	if !rl.Allow("k") {
		t.Fatal("first request denied")
	}
	if rl.Allow("k") {
		t.Fatal("bucket not empty after burst")
	}
	clk.Advance(time.Second) // 2 tokens accrue, capped at burst 1
	if !rl.Allow("k") {
		t.Error("no refill after 1s at 2 rps")
	}
}

func TestRateLimiterRetryAfter(t *testing.T) {
	clk := newManualClock()
	rl := NewRateLimiter(2, 1)
	rl.SetNowFunc(clk.Now)
	rl.Allow("k")
	ok, retry := rl.Take("k")
	if ok {
		t.Fatal("expected denial")
	}
	// Empty bucket at 2 rps: next token in 500ms.
	if retry < 400*time.Millisecond || retry > 600*time.Millisecond {
		t.Errorf("retryAfter = %v, want ~500ms", retry)
	}
}

// TestRateLimiterEvictIdle drives eviction through the sweep Allow runs:
// one request per shard, once the idle TTL has passed, empties the table
// of idle sessions and keeps the one that was active recently.
func TestRateLimiterEvictIdle(t *testing.T) {
	clk := newManualClock()
	rl := NewRateLimiter(10, 10)
	rl.SetNowFunc(clk.Now)
	// probeKeys[i] hashes to shard i: one Allow each reaches every shard.
	var probeKeys [rlShards]string
	for i, n := 0, 0; i < rlShards; n++ {
		if k := fmt.Sprintf("probe-%d", n); hashKey(k)&(rlShards-1) == uint32(i) {
			probeKeys[i] = k
			i++
		}
	}
	probeAll := func() {
		for _, k := range probeKeys {
			rl.Allow(k)
		}
	}
	for i := 0; i < 100; i++ {
		rl.Allow(fmt.Sprintf("sess-%d", i))
	}
	if got := rl.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	clk.Advance(rlIdleTTL / 2)
	rl.Allow("sess-0") // recent activity must survive the sweep
	clk.Advance(rlIdleTTL * 3 / 4)
	probeAll()
	if got := rl.Len(); got != 1+rlShards {
		t.Errorf("after eviction Len = %d, want %d (sess-0 and the probes)", got, 1+rlShards)
	}
	clk.Advance(2 * rlIdleTTL)
	probeAll()
	if got := rl.Len(); got != rlShards {
		t.Errorf("after full idle Len = %d, want %d (the probes just made)", got, rlShards)
	}
}

// TestRateLimiterLazySweepBoundsTable exercises the amortized eviction
// path: a long stream of one-shot sessions with an advancing clock must
// not accumulate a bucket per session ever seen.
func TestRateLimiterLazySweepBoundsTable(t *testing.T) {
	clk := newManualClock()
	rl := NewRateLimiter(2, 6)
	rl.SetNowFunc(clk.Now)
	const sessions = 5000
	for i := 0; i < sessions; i++ {
		rl.Allow(fmt.Sprintf("one-shot-%d", i))
		if i%20 == 19 {
			clk.Advance(rlIdleTTL / 30) // 250 steps: ≈ 8 TTLs in total
		}
	}
	if got := rl.Len(); got >= sessions/2 {
		t.Errorf("lazy sweeps did not bound the table: %d buckets for %d sessions", got, sessions)
	}
}

func TestRateLimiterConcurrentAccess(t *testing.T) {
	rl := NewRateLimiter(1e6, 1e6)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("sess-%d", g)
			for i := 0; i < 2000; i++ {
				if !rl.Allow(key) {
					t.Errorf("denied under huge budget")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
