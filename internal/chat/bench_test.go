package chat

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/websocket"
)

// discardConn is a zero-cost MemberConn: benchmarks measure the room's
// fan-out machinery, not socket writes. It fills a cache line of its own:
// eight bare counters would share one, and workers on different cores
// sending to neighbouring members would measure false sharing instead.
type discardConn struct {
	writes atomic.Int64
	_      [56]byte
}

func (c *discardConn) WritePrepared(*websocket.PreparedMessage) error {
	c.writes.Add(1)
	return nil
}

func (c *discardConn) Close() error { return nil }

// benchRoom builds a room tuned for fan-out measurement: control loops
// off, sampling off (every member sees every message), eviction off.
func benchRoom(b *testing.B, members int) *Room {
	b.Helper()
	r := NewRoom("bench", RoomConfig{
		JoinCap:          1 << 30,
		FanoutShards:     8,
		SendQueueDepth:   64,
		HopelessDrops:    1 << 30,
		HeartInterval:    -1,
		PresenceInterval: -1,
		VisibilityCap:    -1,
	})
	for i := 0; i < members; i++ {
		if _, ok := r.Join(&discardConn{}); !ok {
			b.Fatal("join refused")
		}
	}
	return r
}

// drain waits until the room's shard queues and member queues are empty:
// every broadcast so far has been delivered (or dropped-oldest).
func drain(r *Room) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if items, descs := r.fan.QueueDepth(); items+descs == 0 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkChatRoomBroadcast measures the fully-drained cost of one
// broadcast into an N-member room: publish (encode + frame once, one
// descriptor to each of K shards — the caller's inline cost is
// O(shards), where the seed implementation performed N synchronous
// socket writes on the caller) plus the sharded delivery of the shared
// *PreparedMessage to every member queue. Allocations are per broadcast
// (2: the frame and its PreparedMessage), ~0 per member-message. The
// drain inside the timed region keeps per-op cost uniform, so ns/op is
// the steady-state room-wide delivery cost of one message — of the
// member-messages actually sent: drops/member-msg is the share a flood
// made the core drop oldest instead, so ns/op compares only between runs
// that dropped alike.
func BenchmarkChatRoomBroadcast(b *testing.B) {
	for _, members := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			r := benchRoom(b, members)
			defer r.Close()
			m := Message{User: "user0001", Text: "hello from finland!", SentUnixNano: 1}
			// Warm-up: the first broadcasts grow the shards' batches;
			// steady state is what the gate tracks.
			for i := 0; i < 3; i++ {
				r.Broadcast(m)
			}
			drain(r)
			drops := r.counters.drops.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Broadcast(m)
			}
			drain(r)
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*members), "ns/member-msg")
			b.ReportMetric(float64(r.counters.drops.Load()-drops)/float64(b.N*members), "drops/member-msg")
		})
	}
}

// BenchmarkHeartAggregation measures the tap path: one heart is two
// atomic adds — O(1), no fan-out — while dissemination cost is paid per
// tick. The reported coalesce ratio is taps per delta broadcast.
func BenchmarkHeartAggregation(b *testing.B) {
	r := NewRoom("bench-hearts", RoomConfig{
		JoinCap:          1 << 30,
		FanoutShards:     4,
		HeartInterval:    10 * time.Millisecond,
		PresenceInterval: -1,
	})
	defer r.Close()
	for i := 0; i < 1_000; i++ {
		if _, ok := r.Join(&discardConn{}); !ok {
			b.Fatal("join refused")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Heart(1)
		}
	})
	b.StopTimer()
	if deltas := r.counters.heartDeltas.Load(); deltas > 0 {
		b.ReportMetric(float64(r.counters.heartTaps.Load())/float64(deltas), "taps/delta")
	}
}
