package chat

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/fanout"
	"periscope/internal/websocket"
)

// MemberConn is the connection surface a room needs from a member: the
// shared-frame write used by fan-out and a close for teardown/eviction.
// *websocket.Conn implements it; benchmarks attach in-memory sinks.
type MemberConn interface {
	WritePrepared(*websocket.PreparedMessage) error
	Close() error
}

// Interaction-plane tuning defaults. A zero in RoomConfig means the
// default; a negative interval disables that control loop.
const (
	// DefaultFanoutShardCap caps the per-room fan-out worker count — chat
	// rooms are numerous, so each stays small.
	DefaultFanoutShardCap = 8
	// DefaultSendQueueDepth bounds each member's async send queue. Chat
	// messages are small and bursty; 64 slots absorb several seconds of a
	// busy room before drop-oldest fires.
	DefaultSendQueueDepth = 64
	// DefaultHopelessDrops disconnects a member the drop-oldest policy has
	// penalized this many times — it is not consuming at all.
	DefaultHopelessDrops = 1024
	// DefaultHeartInterval is the heart-delta coalescing tick: N taps
	// arriving within one tick leave the room as one counter delta.
	DefaultHeartInterval = 250 * time.Millisecond
	// DefaultPresenceInterval is the viewer-count dissemination tick;
	// join/leave churn within one tick collapses to one presence update.
	DefaultPresenceInterval = time.Second
	// DefaultVisibilityCap is the member count past which each member
	// samples the chat stream instead of seeing every comment (Periscope
	// capped comment visibility in huge rooms): a member in a room of M >
	// cap members sees ~cap/M of the chat messages.
	DefaultVisibilityCap = 1024
	// shardQueueDepth bounds each fan-out shard's descriptor queue.
	shardQueueDepth = 256
)

// roomCounters are the cumulative interaction-plane metrics. The block
// lives in the longest-lived object that reports it: a Server owns one
// that all of its rooms count into, so server-level totals are monotonic
// across room churn with nothing to copy when a room closes; a
// stand-alone room (NewRoom) has its own.
type roomCounters struct {
	membersJoined   atomic.Int64 // total joins (not current members)
	messagesIn      atomic.Int64 // chat messages accepted into the room
	messagesOut     atomic.Int64 // per-member queue enqueues
	heartTaps       atomic.Int64 // individual heart taps received
	heartDeltas     atomic.Int64 // coalesced delta messages broadcast
	presenceUpdates atomic.Int64 // presence messages broadcast
	drops           atomic.Int64 // drop-oldest evictions from member queues
	hopeless        atomic.Int64 // members disconnected for never draining
	sampledOut      atomic.Int64 // deliveries skipped by visibility sampling
}

// load copies the block into the counter fields of a Stats.
func (c *roomCounters) load() Stats {
	return Stats{
		MembersJoined:       c.membersJoined.Load(),
		MessagesIn:          c.messagesIn.Load(),
		MessagesOut:         c.messagesOut.Load(),
		HeartTaps:           c.heartTaps.Load(),
		HeartDeltas:         c.heartDeltas.Load(),
		PresenceUpdates:     c.presenceUpdates.Load(),
		Drops:               c.drops.Load(),
		HopelessDisconnects: c.hopeless.Load(),
		SampledOut:          c.sampledOut.Load(),
	}
}

// roomMsg is the per-shard fan-out descriptor: the broadcaster marshals
// and frames the message once and publishes one of these to every shard.
type roomMsg struct {
	pm *websocket.PreparedMessage
	// seq is the room-wide message sequence, mixed with each member's salt
	// for visibility sampling.
	seq uint64
	// thresh is the 16-bit visibility threshold: a member sees the message
	// iff sampleKey(seq, salt)&0xffff < thresh. sampleAll delivers to
	// everyone (control messages, small rooms).
	thresh uint32
}

const sampleAll = 1 << 16

// sampleKey mixes the message sequence with a member's salt into a
// uniform 32-bit key (splitmix-style finalizer).
func sampleKey(seq uint64, salt uint32) uint32 {
	x := seq*0x9E3779B97F4A7C15 + uint64(salt)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return uint32(x)
}

// frame is what a member's queue slot holds: the shared prepared frame.
// Frames are GC-managed, so a discarded slot needs no release.
type frame = *websocket.PreparedMessage

// chatMember is a member's fan-out state: salt drives its visibility
// sampling in huge rooms.
type chatMember struct{ salt uint32 }

// admit applies visibility sampling: every member queues the same frame.
func admit(m *fanout.Member[MemberConn, chatMember, frame], d roomMsg) (frame, bool) {
	return d.pm, d.thresh >= sampleAll || sampleKey(d.seq, m.State.salt)&0xffff < d.thresh
}

// done accounts one shard's delivery of one message: one add per counter
// per batch, not per member, and none for the counters the batch left
// alone — the block is shared by every room of the server.
func (r *Room) done(_ roomMsg, t fanout.Tally) {
	r.counters.messagesOut.Add(int64(t.Admitted))
	if t.Skipped != 0 {
		r.counters.sampledOut.Add(int64(t.Skipped))
	}
	if t.Dropped != 0 {
		r.counters.drops.Add(int64(t.Dropped))
	}
}

// evicted accounts a member disconnected for never draining its queue.
func (r *Room) evicted(MemberConn) {
	r.presenceDirty.Store(true)
	r.counters.hopeless.Add(1)
}

// Room is one broadcast's interaction plane: sharded chat fan-out with
// bounded per-member queues, server-side heart aggregation, and jittered
// presence dissemination. Simulated chatters generate traffic; real
// clients join over WebSocket.
type Room struct {
	ID  string
	cfg RoomConfig

	fan *fanout.Group[MemberConn, chatMember, roomMsg, frame]
	seq atomic.Uint64
	// pendingHearts accumulates taps between delta ticks — the tap path is
	// one atomic add, never a fan-out.
	pendingHearts atomic.Int64
	presenceDirty atomic.Bool
	// ending marks a room whose broadcast has ended but whose close is
	// deferred past the CDN linger; a relaunch during the linger clears it,
	// cancelling the stale deferred close.
	ending atomic.Bool
	// counters is the block the room counts into: its server's, or its own.
	counters *roomCounters

	mu      sync.Mutex
	joined  int
	stopped bool
	stopCh  chan struct{}
	saltRng *rand.Rand
}

// NewRoom creates a stand-alone room counting into its own block, starts
// its fan-out workers and control loop, and starts the simulated chatter
// loop if the config has any chatters.
func NewRoom(id string, cfg RoomConfig) *Room {
	return newRoom(id, cfg, new(roomCounters))
}

// newRoom creates a room counting into the given block.
func newRoom(id string, cfg RoomConfig, counters *roomCounters) *Room {
	if cfg.FanoutShards <= 0 {
		cfg.FanoutShards = fanout.DefaultShards(DefaultFanoutShardCap)
	}
	if cfg.SendQueueDepth <= 0 {
		cfg.SendQueueDepth = DefaultSendQueueDepth
	}
	if cfg.HopelessDrops <= 0 {
		cfg.HopelessDrops = DefaultHopelessDrops
	}
	if cfg.HeartInterval == 0 {
		cfg.HeartInterval = DefaultHeartInterval
	}
	if cfg.PresenceInterval == 0 {
		cfg.PresenceInterval = DefaultPresenceInterval
	}
	if cfg.VisibilityCap == 0 {
		cfg.VisibilityCap = DefaultVisibilityCap
	}
	if cfg.JoinCap == 0 {
		cfg.JoinCap = DefaultJoinCap
	}
	r := &Room{
		ID:       id,
		cfg:      cfg,
		counters: counters,
		stopCh:   make(chan struct{}),
		saltRng:  rand.New(rand.NewSource(cfg.Seed ^ 0x6a09e667)),
	}
	r.fan = fanout.New(cfg.FanoutShards, shardQueueDepth, cfg.SendQueueDepth, cfg.HopelessDrops,
		fanout.Hooks[MemberConn, chatMember, roomMsg, frame]{
			Share:   func(roomMsg) {},
			Done:    r.done,
			Admit:   admit,
			Send:    MemberConn.WritePrepared,
			Discard: func(frame) {},
			Evicted: r.evicted,
		})
	if cfg.HeartInterval > 0 || cfg.PresenceInterval > 0 {
		go r.controlLoop()
	}
	if cfg.Chatters > 0 && cfg.MsgPerChatterSec > 0 {
		go r.generate()
	}
	return r
}

// generate emits simulated chat messages at the aggregate room rate.
func (r *Room) generate() {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	rate := float64(r.cfg.Chatters) * r.cfg.MsgPerChatterSec
	if rate <= 0 {
		return
	}
	for {
		wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if wait > 5*time.Second {
			wait = 5 * time.Second
		}
		select {
		case <-r.stopCh:
			return
		case <-time.After(wait):
		}
		user := fmt.Sprintf("user%04d", rng.Intn(r.cfg.Chatters))
		m := Message{
			User:         user,
			Text:         syntheticText(rng),
			SentUnixNano: time.Now().UnixNano(),
		}
		if rng.Float64() < r.cfg.AvatarFrac {
			m.AvatarURL = "/avatars/" + user + ".jpg"
		}
		r.Broadcast(m)
	}
}

// controlLoop runs the room's periodic dissemination: heart counter
// deltas and presence updates, each on its own jittered tick so rooms
// (and their clients' radios) do not beat in phase.
func (r *Room) controlLoop() {
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ 0x5eaf00d))
	jitter := func(d time.Duration) time.Duration {
		// ±20% uniform jitter around the base interval.
		return d + time.Duration((rng.Float64()-0.5)*0.4*float64(d))
	}
	var heartC, presC <-chan time.Time
	var heartT, presT *time.Timer
	if r.cfg.HeartInterval > 0 {
		heartT = time.NewTimer(jitter(r.cfg.HeartInterval))
		defer heartT.Stop()
		heartC = heartT.C
	}
	if r.cfg.PresenceInterval > 0 {
		presT = time.NewTimer(jitter(r.cfg.PresenceInterval))
		defer presT.Stop()
		presC = presT.C
	}
	for {
		select {
		case <-r.stopCh:
			return
		case <-heartC:
			r.flushHearts()
			heartT.Reset(jitter(r.cfg.HeartInterval))
		case <-presC:
			if r.presenceDirty.Swap(false) {
				r.counters.presenceUpdates.Add(1)
				r.publish(Message{
					Kind:         KindPresence,
					Members:      r.Members(),
					Joined:       r.Joined(),
					SentUnixNano: time.Now().UnixNano(),
				}, false)
			}
			presT.Reset(jitter(r.cfg.PresenceInterval))
		}
	}
}

// flushHearts broadcasts one coalesced delta for the taps accumulated
// since the last tick — fan-out cost is O(ticks), not O(taps).
func (r *Room) flushHearts() {
	n := r.pendingHearts.Swap(0)
	if n <= 0 {
		return
	}
	r.counters.heartDeltas.Add(1)
	r.publish(Message{Kind: KindHeartDelta, Count: int(n), SentUnixNano: time.Now().UnixNano()}, false)
}

// Heart records n heart taps (n<=0 counts as one, n is clamped to
// MaxHeartsPerTap). Taps are aggregated server-side and leave the room as
// periodic counter deltas.
func (r *Room) Heart(n int) {
	if n <= 0 {
		n = 1
	}
	n = min(n, MaxHeartsPerTap)
	r.counters.heartTaps.Add(int64(n))
	r.pendingHearts.Add(int64(n))
}

// Broadcast sends a chat message to the room's members (subject to
// visibility sampling in huge rooms). Control kinds pass through
// unsampled.
func (r *Room) Broadcast(m Message) {
	chatKind := m.Kind == "" || m.Kind == KindChat
	if chatKind {
		r.counters.messagesIn.Add(1)
	}
	r.publish(m, chatKind)
}

// publish marshals and frames the message once, then hands one descriptor
// to the fan-out group. The broadcaster's cost is O(shards), not
// O(members).
func (r *Room) publish(m Message, sampled bool) {
	n := r.fan.Len()
	if n == 0 {
		return
	}
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	msg := roomMsg{
		pm:     websocket.PrepareMessage(websocket.OpText, data),
		seq:    r.seq.Add(1),
		thresh: sampleAll,
	}
	if sampled {
		if cap := r.cfg.VisibilityCap; cap > 0 && n > cap {
			msg.thresh = uint32((uint64(cap) << 16) / uint64(n))
			if msg.thresh == 0 {
				msg.thresh = 1
			}
		}
	}
	r.fan.Publish(msg)
}

// Join attaches a connection to the room. canSend is false once the room
// is full — late joiners only listen (they may still heart). ok is false
// when the room has closed; the caller owns closing the connection then.
func (r *Room) Join(c MemberConn) (canSend, ok bool) {
	canSend, salt := r.admit()
	if !r.attach(c, salt) {
		return false, false
	}
	return canSend, true
}

// admit counts a joiner and decides its send right, in admission order.
// The server admits before it answers the WebSocket handshake, so a
// client that connects after another's handshake completed is counted
// after it.
func (r *Room) admit() (canSend bool, salt uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.joined++
	return r.joined <= r.cfg.JoinCap, r.saltRng.Uint32()
}

// withdraw uncounts an admitted joiner whose handshake failed, so a
// request that never becomes a member does not spend a send right.
func (r *Room) withdraw() {
	r.mu.Lock()
	r.joined--
	r.mu.Unlock()
}

// attach adds an admitted joiner to the fan-out group; false when the
// room has closed.
func (r *Room) attach(c MemberConn, salt uint32) bool {
	if !r.fan.Attach(c, chatMember{salt: salt}) {
		return false
	}
	r.counters.membersJoined.Add(1)
	r.presenceDirty.Store(true)
	return true
}

// Leave detaches a connection. It is a no-op when the delivery path
// already evicted the member as hopeless.
func (r *Room) Leave(c MemberConn) {
	if r.fan.Remove(c) {
		r.presenceDirty.Store(true)
	}
}

// Members reports the current number of attached clients.
func (r *Room) Members() int {
	return r.fan.Len()
}

// Joined reports the cumulative join count (the chat-full cap compares
// against this, not current membership).
func (r *Room) Joined() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.joined
}

// Close stops the chatter and control loops, then stops and disconnects
// every member. Idempotent.
func (r *Room) Close() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.stopCh)
	r.mu.Unlock()
	for _, c := range r.fan.Stop() {
		c.Close()
	}
}
