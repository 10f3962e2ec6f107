// Package chat implements the Periscope interaction plane: WebSocket
// chat rooms attached to broadcasts (§3), JSON-encoded chat messages
// that arrive even when the chat UI is off, a join cap after which "new
// joining users cannot send messages" (chat full), heart taps aggregated
// server-side into periodic counter deltas, presence (viewer-count)
// dissemination on a jittered tick, and an Amazon-S3-like avatar server.
//
// The QoE study found the chat feature dominates traffic and power when
// enabled: the app downloads chatting users' profile pictures next to
// their messages, does not cache them, and in one experiment the aggregate
// data rate rose from ~500 kbps to 3.5 Mbps (§5.1, §5.3). The client here
// reproduces exactly that behaviour: avatars are fetched per message
// displayed, with no cache.
//
// Fan-out runs on internal/fanout, the core shared with the media hub:
// each room shards its members across K workers, every member has a
// bounded async send queue with a drop-oldest policy, and members that
// never drain are disconnected — one slow WebSocket cannot
// head-of-line-block a room. In huge rooms each member
// samples the chat stream (per-viewer comment-visibility capping) so what
// a member sees stays bounded as the room grows.
package chat

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"periscope/internal/websocket"
)

// Message kinds as carried in the "kind" field. An absent kind is a chat
// message (the seed-era wire format).
const (
	// KindChat is a user-visible chat message.
	KindChat = ""
	// KindHeart is a single client→server heart tap (WebSocket
	// alternative to POST /hearts/{id}).
	KindHeart = "heart"
	// KindHeartDelta is the server's coalesced heart counter delta:
	// Count hearts were tapped since the previous delta.
	KindHeartDelta = "heart_delta"
	// KindPresence is the server's periodic viewer-count update.
	KindPresence = "presence"
)

// Message is one interaction-plane message as carried on the WebSocket.
type Message struct {
	Kind      string `json:"kind,omitempty"`
	User      string `json:"user,omitempty"`
	Text      string `json:"text,omitempty"`
	AvatarURL string `json:"avatar_url,omitempty"`
	// Count is the coalesced heart count on a heart_delta (or the tap
	// multiplier on an inbound heart).
	Count int `json:"count,omitempty"`
	// Members/Joined carry the room gauge on a presence update.
	Members int `json:"members,omitempty"`
	Joined  int `json:"joined,omitempty"`
	// SentUnixNano is the sender's clock in Unix nanoseconds — the unit is
	// explicit in both the field name and the JSON tag, matching the
	// client-side latency accounting.
	SentUnixNano int64 `json:"sent_unix_nano,omitempty"`
}

// DefaultJoinCap is the number of joined users after which the chat
// becomes full.
const DefaultJoinCap = 100

// MaxHeartsPerTap bounds the multiplier one tap request may carry. The
// count arrives from outside (?n= or a heart message's count), and an
// unbounded one wraps the monotonic tap counters negative in two requests.
const MaxHeartsPerTap = 1000

// RoomConfig tunes a chat room: the simulated chatter workload plus the
// interaction-plane machinery (fan-out sharding, queue bounds, heart and
// presence ticks, visibility capping). Zero values mean defaults; a
// negative interval disables that control loop.
type RoomConfig struct {
	// Chatters is the number of simulated active chatting users.
	Chatters int
	// MsgPerChatterSec is each chatter's message rate.
	MsgPerChatterSec float64
	// AvatarFrac is the fraction of chatters with a profile picture.
	AvatarFrac float64
	// JoinCap caps senders (chat full).
	JoinCap int
	Seed    int64

	// FanoutShards is the number of fan-out workers (default: GOMAXPROCS
	// capped at DefaultFanoutShardCap).
	FanoutShards int
	// SendQueueDepth bounds each member's async send queue (drop-oldest
	// beyond it).
	SendQueueDepth int
	// HopelessDrops disconnects a member after this many drop-oldest
	// penalties.
	HopelessDrops int
	// HeartInterval is the heart-delta coalescing tick (negative disables
	// heart dissemination).
	HeartInterval time.Duration
	// PresenceInterval is the viewer-count dissemination tick (negative
	// disables presence updates).
	PresenceInterval time.Duration
	// VisibilityCap is the member count past which members sample the chat
	// stream instead of receiving every message (negative disables
	// sampling).
	VisibilityCap int
}

// RoomConfigForViewers derives chat activity from a broadcast's audience:
// a fixed fraction of viewers chat, capped by the join cap.
func RoomConfigForViewers(viewers int, seed int64) RoomConfig {
	chatters := viewers / 4
	if chatters > DefaultJoinCap {
		chatters = DefaultJoinCap
	}
	return RoomConfig{
		Chatters:         chatters,
		MsgPerChatterSec: 0.05, // one message per chatter every 20 s
		AvatarFrac:       0.7,
		JoinCap:          DefaultJoinCap,
		Seed:             seed,
	}
}

var chatPhrases = []string{
	"hello from finland!", "where is this?", "nice view", "omg", "hi hi hi",
	"what's happening?", "greetings", "love this", "turn around please",
	"how's the weather", "first time here", "this is great",
}

func syntheticText(rng *rand.Rand) string {
	return chatPhrases[rng.Intn(len(chatPhrases))]
}

// Stats is the server-wide interaction-plane snapshot: gauges for the
// current state plus cumulative counters that stay monotonic across room
// close (rooms count into the server's block).
type Stats struct {
	// Gauges.
	Rooms          int // rooms currently open
	Members        int // members currently attached across rooms
	SendQueueDepth int // messages queued across all member send queues

	// Cumulative counters (monotonic across room close).
	RoomsOpened         int64
	RoomsClosed         int64
	MembersJoined       int64
	MessagesIn          int64
	MessagesOut         int64
	HeartTaps           int64
	HeartDeltas         int64
	PresenceUpdates     int64
	Drops               int64
	HopelessDisconnects int64
	SampledOut          int64
}

// Server hosts chat rooms at /chat/{broadcastID}, heart taps at
// /hearts/{broadcastID}, and profile pictures at /avatars/{user}.jpg.
type Server struct {
	mu          sync.Mutex
	rooms       map[string]*Room
	roomsOpened int64
	roomsClosed int64
	// counters is the block every room of this server counts into, so
	// server-level totals never go backwards when a room dies.
	counters roomCounters
	// AvatarMinKB/AvatarMaxKB bound the synthetic profile-picture sizes;
	// "the precise effect on traffic depends on … the format and
	// resolution of profile pictures" (§5.1).
	AvatarMinKB int
	AvatarMaxKB int
}

// NewServer creates an empty chat server.
func NewServer() *Server {
	return &Server{rooms: map[string]*Room{}, AvatarMinKB: 15, AvatarMaxKB: 80}
}

// Room returns (creating if needed) the room for a broadcast. Reusing a
// room cancels any pending deferred close: a broadcast relaunched during
// the end linger keeps its room.
func (s *Server) Room(id string, cfg RoomConfig) *Room {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.rooms[id]; ok {
		r.ending.Store(false)
		return r
	}
	r := newRoom(id, cfg, &s.counters)
	s.rooms[id] = r
	s.roomsOpened++
	return r
}

// Lookup returns the room for a broadcast, or nil.
func (s *Server) Lookup(id string) *Room {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rooms[id]
}

// CloseRoom shuts a room down (broadcast ended).
func (s *Server) CloseRoom(id string) {
	s.mu.Lock()
	r := s.unlistLocked(id)
	s.mu.Unlock()
	if r != nil {
		r.Close()
	}
}

// unlistLocked removes the room for id from the map and counts the close
// (caller holds s.mu); the caller closes the returned room, if any,
// outside the lock — Room.Close disconnects every member.
func (s *Server) unlistLocked(id string) *Room {
	r := s.rooms[id]
	if r != nil {
		delete(s.rooms, id)
		s.roomsClosed++
	}
	return r
}

// BeginClose marks the room for id as ending and returns it (nil when no
// room exists). The room stays open — members keep chatting while HLS
// viewers drain — until CloseRoomIf finishes the job after the linger.
func (s *Server) BeginClose(id string) *Room {
	s.mu.Lock()
	r := s.rooms[id]
	s.mu.Unlock()
	if r != nil {
		r.ending.Store(true)
	}
	return r
}

// CloseRoomIf closes the room for id only if it is still the given room
// and still marked ending — a broadcast relaunched during the close
// linger reclaims its room (clearing the mark), and a stale deferred
// close must not tear it down.
func (s *Server) CloseRoomIf(id string, want *Room) {
	if want == nil {
		return
	}
	s.mu.Lock()
	if r := s.rooms[id]; r != want || !r.ending.Load() {
		s.mu.Unlock()
		return
	}
	s.unlistLocked(id)
	s.mu.Unlock()
	want.Close()
}

// Close shuts every room down (service shutdown).
func (s *Server) Close() {
	s.mu.Lock()
	rooms := s.rooms
	s.rooms = map[string]*Room{}
	s.roomsClosed += int64(len(rooms))
	s.mu.Unlock()
	for _, r := range rooms {
		r.Close()
	}
}

// Snapshot reads the server's counter block and sums the gauges over the
// open rooms.
func (s *Server) Snapshot() Stats {
	st := s.counters.load()
	s.mu.Lock()
	st.RoomsOpened = s.roomsOpened
	st.RoomsClosed = s.roomsClosed
	rooms := make([]*Room, 0, len(s.rooms))
	for _, r := range s.rooms {
		rooms = append(rooms, r)
	}
	s.mu.Unlock()
	st.Rooms = len(rooms)
	for _, r := range rooms {
		st.Members += r.Members()
		queued, _ := r.fan.QueueDepth()
		st.SendQueueDepth += queued
	}
	return st
}

// ServeHTTP routes chat joins, heart taps, and avatar downloads.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/chat/"):
		id := strings.TrimPrefix(r.URL.Path, "/chat/")
		room := s.Lookup(id)
		if room == nil {
			http.NotFound(w, r)
			return
		}
		// Admitted before the handshake is answered: the send right
		// follows handshake order.
		canSend, salt := room.admit()
		conn, err := websocket.Upgrade(w, r)
		if err != nil {
			room.withdraw()
			return
		}
		if !room.attach(conn, salt) {
			// The room closed between the lookup and the join.
			conn.Close()
			return
		}
		go s.serveMember(room, conn, canSend)
	case strings.HasPrefix(r.URL.Path, "/hearts/"):
		s.serveHeart(w, r)
	case strings.HasPrefix(r.URL.Path, "/avatars/"):
		s.serveAvatar(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveHeart handles POST /hearts/{broadcastID}?n=N — the tap endpoint.
// The tap path is a counter bump, never a fan-out; deltas leave the room
// on the heart tick.
func (s *Server) serveHeart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/hearts/")
	room := s.Lookup(id)
	if room == nil {
		http.NotFound(w, r)
		return
	}
	n := 1
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > MaxHeartsPerTap {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	room.Heart(n)
	w.WriteHeader(http.StatusNoContent)
}

// serveMember relays inbound messages from a member until the connection
// drops. Chat messages from late joiners (chat full) are dropped; heart
// taps are accepted from everyone.
func (s *Server) serveMember(room *Room, conn *websocket.Conn, canSend bool) {
	defer func() {
		room.Leave(conn)
		conn.Close()
	}()
	for {
		_, data, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var m Message
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		switch m.Kind {
		case KindHeart:
			room.Heart(m.Count)
		case KindChat:
			if !canSend {
				continue // chat full: messages from late joiners are dropped
			}
			room.Broadcast(m)
		}
	}
}

// serveAvatar returns a deterministic pseudo-JPEG blob for a user. The
// response is cacheable, but the app never caches it (§5.1: "some pictures
// were downloaded multiple times, which indicates that the app does not
// cache them").
func (s *Server) serveAvatar(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/avatars/")
	name = strings.TrimSuffix(name, ".jpg")
	if name == "" {
		http.NotFound(w, r)
		return
	}
	// Deterministic size in [min, max] KB from the user name.
	h := uint64(14695981039346656037)
	for _, c := range name {
		h = (h ^ uint64(c)) * 1099511628211
	}
	kb := s.AvatarMinKB
	if s.AvatarMaxKB > s.AvatarMinKB {
		kb += int(h % uint64(s.AvatarMaxKB-s.AvatarMinKB+1))
	}
	size := kb * 1024
	w.Header().Set("Content-Type", "image/jpeg")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.Header().Set("Cache-Control", "max-age=86400")
	blob := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(h)))
	rng.Read(blob)
	// JPEG SOI marker for verisimilitude.
	if size >= 2 {
		blob[0], blob[1] = 0xFF, 0xD8
	}
	w.Write(blob)
}
