package chat

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/websocket"
)

// sinkConn is an in-memory MemberConn that records delivered payloads.
type sinkConn struct {
	mu       sync.Mutex
	payloads [][]byte
	closed   bool
}

func (c *sinkConn) WritePrepared(pm *websocket.PreparedMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return websocket.ErrClosed
	}
	c.payloads = append(c.payloads, pm.Payload())
	return nil
}

func (c *sinkConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *sinkConn) received() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.payloads)
}

func (c *sinkConn) messages(t *testing.T) []Message {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Message, 0, len(c.payloads))
	for _, p := range c.payloads {
		var m Message
		if err := json.Unmarshal(p, &m); err != nil {
			t.Fatalf("bad payload %q: %v", p, err)
		}
		out = append(out, m)
	}
	return out
}

// stuckConn never consumes a write: its member's queue fills, drop-oldest
// fires on every broadcast, and the room must eventually evict it.
type stuckConn struct {
	unblock chan struct{}
	closed  atomic.Bool
}

func (c *stuckConn) WritePrepared(*websocket.PreparedMessage) error {
	<-c.unblock
	return websocket.ErrClosed
}

func (c *stuckConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.unblock)
	}
	return nil
}

// quietRoom builds a room with the control loops disabled, so tests can
// count exactly the messages they broadcast.
func quietRoom(cfg RoomConfig) *Room {
	cfg.HeartInterval = -1
	cfg.PresenceInterval = -1
	return NewRoom("test", cfg)
}

// waitIdle waits until the room's fan-out has fully drained: every
// broadcast so far is accounted as either delivered or sampled out.
func waitIdle(t *testing.T, r *Room) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if items, descs := r.fan.QueueDepth(); items+descs == 0 {
			// One settle round: a shard may be mid-deliver.
			time.Sleep(10 * time.Millisecond)
			if items, _ := r.fan.QueueDepth(); items == 0 {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatal("room fan-out never drained")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestConcurrentBroadcastLeave is the satellite-2 regression: the seed
// Room.Broadcast mutated r.conns per failed conn while other broadcasts
// iterated a stale snapshot. The sharded room must survive heavy
// concurrent Broadcast/Leave/Join without losing its member accounting.
func TestConcurrentBroadcastLeave(t *testing.T) {
	r := quietRoom(RoomConfig{JoinCap: 1 << 20, FanoutShards: 4})
	defer r.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Broadcast(Message{User: "u", Text: fmt.Sprintf("m%d", i)})
		}
	}()
	const churners = 4
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				conns := make([]*sinkConn, 8)
				for j := range conns {
					conns[j] = &sinkConn{}
					if _, ok := r.Join(conns[j]); !ok {
						t.Error("join refused on open room")
						return
					}
				}
				for _, c := range conns {
					r.Leave(c)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := r.Members(); got != 0 {
		t.Fatalf("members = %d after all left, want 0", got)
	}
	if joined := r.counters.membersJoined.Load(); joined != churners*40*8 {
		t.Fatalf("membersJoined = %d, want %d", joined, churners*40*8)
	}
}

// TestMemberChurnDuringShardedBroadcast keeps a persistent member and
// verifies it receives every message even while other members churn
// through the shards mid-broadcast.
func TestMemberChurnDuringShardedBroadcast(t *testing.T) {
	r := quietRoom(RoomConfig{JoinCap: 1 << 20, FanoutShards: 4, SendQueueDepth: 4096})
	defer r.Close()
	keeper := &sinkConn{}
	if _, ok := r.Join(keeper); !ok {
		t.Fatal("join refused")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := &sinkConn{}
				if _, ok := r.Join(c); ok {
					r.Leave(c)
				}
			}
		}()
	}
	const msgs = 500
	for i := 0; i < msgs; i++ {
		r.Broadcast(Message{User: "u", Text: fmt.Sprintf("m%d", i)})
	}
	close(stop)
	wg.Wait()
	waitIdle(t, r)
	if got := keeper.received(); got != msgs {
		t.Fatalf("persistent member received %d of %d messages", got, msgs)
	}
	if drops := r.counters.drops.Load(); drops != 0 {
		t.Fatalf("unexpected queue drops: %d", drops)
	}
}

// TestHeartDeltaCoalescing pins the tentpole's heart property: the sum of
// the broadcast deltas equals the taps, and the number of delta messages
// is O(ticks), not O(taps).
func TestHeartDeltaCoalescing(t *testing.T) {
	r := NewRoom("hearts", RoomConfig{
		JoinCap:          10,
		HeartInterval:    20 * time.Millisecond,
		PresenceInterval: -1,
	})
	defer r.Close()
	c := &sinkConn{}
	if _, ok := r.Join(c); !ok {
		t.Fatal("join refused")
	}

	const taps = 10_000
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < taps/8; i++ {
				r.Heart(1)
			}
		}()
	}
	wg.Wait()
	tapWindow := time.Since(start)

	deadline := time.After(5 * time.Second)
	for {
		sum, deltas := 0, 0
		for _, m := range c.messages(t) {
			if m.Kind == KindHeartDelta {
				deltas++
				sum += m.Count
			}
		}
		if sum == taps {
			// 10k taps fit in a handful of 20ms ticks: the member must have
			// seen a number of messages bounded by elapsed ticks, nowhere
			// near the tap count.
			elapsed := tapWindow + time.Since(start) + time.Second
			maxDeltas := int(elapsed/(20*time.Millisecond)) + 2
			if deltas > maxDeltas {
				t.Fatalf("%d heart messages for %d taps (max ~%d ticks): fan-out is not O(ticks)", deltas, taps, maxDeltas)
			}
			if got := r.counters.heartTaps.Load(); got != taps {
				t.Fatalf("heartTaps counter = %d, want %d", got, taps)
			}
			if got := r.counters.heartDeltas.Load(); got != int64(deltas) {
				t.Fatalf("heartDeltas counter = %d, member saw %d", got, deltas)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("delta sum = %d, want %d", sum, taps)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPresenceDissemination verifies join/leave churn collapses into
// periodic presence updates carrying the member gauge.
func TestPresenceDissemination(t *testing.T) {
	r := NewRoom("presence", RoomConfig{
		JoinCap:          100,
		HeartInterval:    -1,
		PresenceInterval: 20 * time.Millisecond,
	})
	defer r.Close()
	c := &sinkConn{}
	if _, ok := r.Join(c); !ok {
		t.Fatal("join refused")
	}
	others := make([]*sinkConn, 5)
	for i := range others {
		others[i] = &sinkConn{}
		if _, ok := r.Join(others[i]); !ok {
			t.Fatal("join refused")
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		var last *Message
		for _, m := range c.messages(t) {
			if m.Kind == KindPresence {
				mm := m
				last = &mm
			}
		}
		if last != nil && last.Members == 6 && last.Joined == 6 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("no presence update with members=6 (last %+v)", last)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestHopelessMemberDisconnected verifies a member that never drains its
// queue is evicted without stalling delivery to healthy members.
func TestHopelessMemberDisconnected(t *testing.T) {
	r := quietRoom(RoomConfig{
		JoinCap:        10,
		FanoutShards:   1, // both members on one shard: the stuck one must not shield the healthy one
		SendQueueDepth: 4,
		HopelessDrops:  8,
	})
	defer r.Close()
	healthy := &sinkConn{}
	stuck := &stuckConn{unblock: make(chan struct{})}
	if _, ok := r.Join(healthy); !ok {
		t.Fatal("join refused")
	}
	if _, ok := r.Join(stuck); !ok {
		t.Fatal("join refused")
	}

	// Paced sends: the healthy member's consumer keeps up easily, so only
	// the stuck member accumulates drop-oldest penalties.
	const msgs = 50
	for i := 0; i < msgs; i++ {
		r.Broadcast(Message{User: "u", Text: fmt.Sprintf("m%d", i)})
		time.Sleep(2 * time.Millisecond)
	}
	waitIdle(t, r)
	if got := healthy.received(); got != msgs {
		t.Fatalf("healthy member received %d of %d messages behind a stuck peer", got, msgs)
	}
	if !stuck.closed.Load() {
		t.Fatal("stuck member's connection not closed")
	}
	if got := r.counters.hopeless.Load(); got != 1 {
		t.Fatalf("hopeless counter = %d, want 1", got)
	}
	if got := r.Members(); got != 1 {
		t.Fatalf("members = %d after eviction, want 1", got)
	}
	// A later Leave from the server read loop must not double-decrement.
	r.Leave(stuck)
	if got := r.Members(); got != 1 {
		t.Fatalf("members = %d after redundant Leave, want 1", got)
	}
}

// TestVisibilitySampling pins the huge-room capping behaviour: each
// member sees ~cap/members of the chat stream, while control messages
// (heart deltas) reach everyone.
func TestVisibilitySampling(t *testing.T) {
	const members, cap, msgs = 512, 64, 200
	r := quietRoom(RoomConfig{
		JoinCap:        1 << 20,
		VisibilityCap:  cap,
		SendQueueDepth: 1024,
	})
	defer r.Close()
	conns := make([]*sinkConn, members)
	for i := range conns {
		conns[i] = &sinkConn{}
		if _, ok := r.Join(conns[i]); !ok {
			t.Fatal("join refused")
		}
	}
	for i := 0; i < msgs; i++ {
		r.Broadcast(Message{User: "u", Text: fmt.Sprintf("m%d", i)})
	}
	r.flushHearts() // no taps: no-op
	r.Heart(3)
	r.flushHearts() // one unsampled control message
	waitIdle(t, r)

	if drops := r.counters.drops.Load(); drops != 0 {
		t.Fatalf("queue drops (%d) would skew the sampling measurement", drops)
	}
	chatSeen, deltaSeen := 0, 0
	for _, c := range conns {
		for _, m := range c.messages(t) {
			switch m.Kind {
			case KindChat:
				chatSeen++
			case KindHeartDelta:
				deltaSeen++
				if m.Count != 3 {
					t.Fatalf("heart delta count = %d, want 3", m.Count)
				}
			}
		}
	}
	if deltaSeen != members {
		t.Fatalf("heart delta reached %d of %d members: control messages must be unsampled", deltaSeen, members)
	}
	// Expected chat deliveries: msgs × members × (cap/members) = msgs × cap.
	want := msgs * cap
	if chatSeen < want*80/100 || chatSeen > want*120/100 {
		t.Fatalf("sampled deliveries = %d, want ≈%d (cap %d of %d members)", chatSeen, want, cap, members)
	}
	if sampled := r.counters.sampledOut.Load(); sampled != int64(msgs*members-chatSeen) {
		t.Fatalf("sampledOut = %d, delivered = %d, broadcasts = %d: accounting mismatch",
			sampled, chatSeen, msgs*members)
	}
}

// TestRoomCloseRacesJoin drives the service's room close (BeginClose, then
// CloseRoomIf) concurrently with WebSocket upgrades: every join either
// lands in the room (and is then disconnected by the close) or is refused —
// never wedged, never panicking.
func TestRoomCloseRacesJoin(t *testing.T) {
	for i := 0; i < 15; i++ {
		s := NewServer()
		id := fmt.Sprintf("race%d", i)
		s.Room(id, RoomConfig{JoinCap: 1 << 20, HeartInterval: -1, PresenceInterval: -1})
		hs := httptest.NewServer(s)

		var wg sync.WaitGroup
		clients := make([]*Client, 8)
		for j := range clients {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				c, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/" + id})
				if err == nil {
					clients[j] = c
				}
			}(j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.CloseRoomIf(id, s.BeginClose(id))
		}()
		wg.Wait()
		if room := s.Lookup(id); room != nil {
			t.Fatalf("room %s still registered after CloseRoomIf", id)
		}
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		hs.Close()
	}
}

// TestHeartTapHTTP exercises the POST /hearts/{id} endpoint.
func TestHeartTapHTTP(t *testing.T) {
	s, hs, room := startChat(t, "tap", RoomConfig{JoinCap: 10, HeartInterval: -1, PresenceInterval: -1})
	post := func(path string) int {
		resp, err := http.Post(hs.URL+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/hearts/tap"); code != http.StatusNoContent {
		t.Fatalf("tap status = %d, want 204", code)
	}
	if code := post("/hearts/tap?n=5"); code != http.StatusNoContent {
		t.Fatalf("multi-tap status = %d, want 204", code)
	}
	if code := post("/hearts/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown-room tap status = %d, want 404", code)
	}
	if code := post("/hearts/tap?n=0"); code != http.StatusBadRequest {
		t.Fatalf("bad-n tap status = %d, want 400", code)
	}
	resp, err := http.Get(hs.URL + "/hearts/tap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET tap status = %d, want 405", resp.StatusCode)
	}
	if got := room.counters.heartTaps.Load(); got != 6 {
		t.Fatalf("heartTaps = %d, want 6", got)
	}
	if st := s.Snapshot(); st.HeartTaps != 6 {
		t.Fatalf("snapshot HeartTaps = %d, want 6", st.HeartTaps)
	}
}

// TestHeartTapCountBounded is the regression test for unbounded tap
// multipliers: two taps of MaxInt64 used to wrap heartTaps and the pending
// delta negative, so Stats.HeartTaps dipped and flushHearts swallowed the
// delta. Over HTTP an oversized n is refused; over the WebSocket it is
// clamped; the counters only ever grow.
func TestHeartTapCountBounded(t *testing.T) {
	s, hs, room := startChat(t, "huge", RoomConfig{JoinCap: 10, HeartInterval: -1, PresenceInterval: -1})
	huge := strconv.Itoa(math.MaxInt64)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(hs.URL+"/hearts/huge?n="+huge, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tap with n=MaxInt64: status %d, want 400", resp.StatusCode)
		}
	}
	if got := s.Snapshot().HeartTaps; got != 0 {
		t.Fatalf("refused taps counted: HeartTaps = %d", got)
	}

	c, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/huge"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitMembers(t, room, 1)
	var last int64
	for i := 1; i <= 2; i++ {
		if err := c.Heart(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		want := int64(i * MaxHeartsPerTap)
		deadline := time.Now().Add(3 * time.Second)
		for s.Snapshot().HeartTaps != want {
			if got := s.Snapshot().HeartTaps; got < last || time.Now().After(deadline) {
				t.Fatalf("after %d oversized taps HeartTaps = %d, want %d", i, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		last = want
	}
	room.flushHearts()
	if got := room.counters.heartDeltas.Load(); got != 1 {
		t.Fatalf("pending taps swallowed: %d deltas flushed, want 1", got)
	}
}

// TestHeartsAllowedWhenChatFull: a member past the join cap cannot chat
// but can still tap hearts (over the WebSocket).
func TestHeartsAllowedWhenChatFull(t *testing.T) {
	_, hs, room := startChat(t, "full", RoomConfig{JoinCap: 1, HeartInterval: -1, PresenceInterval: -1})
	c1, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/full"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/full"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitMembers(t, room, 2)
	if err := c2.Heart(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for room.counters.heartTaps.Load() < 7 {
		select {
		case <-deadline:
			t.Fatalf("heartTaps = %d, want 7: capped member's hearts dropped", room.counters.heartTaps.Load())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestClientHeartsAndLatency drives the full loop through a real
// WebSocket: HTTP heart taps coalesce into deltas the client counts, and
// chat-message latency is accounted from SentUnixNano.
func TestClientHeartsAndLatency(t *testing.T) {
	_, hs, room := startChat(t, "loop", RoomConfig{
		JoinCap:          10,
		HeartInterval:    20 * time.Millisecond,
		PresenceInterval: 30 * time.Millisecond,
	})
	c, err := Join(ClientConfig{
		ChatURL:   wsBase(hs) + "/chat/loop",
		HeartsURL: hs.URL + "/hearts/loop",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitMembers(t, room, 1)
	for i := 0; i < 10; i++ {
		if err := c.Heart(10); err != nil {
			t.Fatal(err)
		}
	}
	room.Broadcast(Message{User: "u", Text: "hi", SentUnixNano: time.Now().UnixNano()})
	deadline := time.After(5 * time.Second)
	for {
		st := c.Stats()
		if st.HeartsSeen == 100 && st.MessagesReceived >= 1 && st.PresenceUpdates >= 1 {
			if st.HeartDeltas > 20 {
				t.Fatalf("100 taps arrived as %d delta messages: not coalesced", st.HeartDeltas)
			}
			if st.MeanChatLatency <= 0 || st.MeanChatLatency > 5*time.Second {
				t.Fatalf("MeanChatLatency = %v, want (0, 5s]", st.MeanChatLatency)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats never converged: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSnapshotMonotonicAcrossRoomClose is the counter-folding regression:
// closing a room must not lose its cumulative counters.
func TestSnapshotMonotonicAcrossRoomClose(t *testing.T) {
	s := NewServer()
	r := s.Room("mono", RoomConfig{JoinCap: 10, HeartInterval: -1, PresenceInterval: -1})
	c := &sinkConn{}
	if _, ok := r.Join(c); !ok {
		t.Fatal("join refused")
	}
	for i := 0; i < 20; i++ {
		r.Broadcast(Message{User: "u", Text: "x"})
	}
	r.Heart(5)
	waitIdle(t, r)

	before := s.Snapshot()
	if before.Rooms != 1 || before.Members != 1 {
		t.Fatalf("gauges before close: %+v", before)
	}
	if before.MessagesIn != 20 || before.MessagesOut != 20 || before.HeartTaps != 5 {
		t.Fatalf("counters before close: %+v", before)
	}
	s.CloseRoomIf("mono", s.BeginClose("mono"))
	after := s.Snapshot()
	if after.Rooms != 0 || after.Members != 0 {
		t.Fatalf("gauges after close: %+v", after)
	}
	if after.RoomsClosed != 1 || after.RoomsOpened != 1 {
		t.Fatalf("room lifecycle counters after close: %+v", after)
	}
	if after.MessagesIn < before.MessagesIn || after.MessagesOut < before.MessagesOut ||
		after.HeartTaps < before.HeartTaps || after.MembersJoined < before.MembersJoined {
		t.Fatalf("cumulative counters dipped across close:\nbefore %+v\nafter  %+v", before, after)
	}
}
