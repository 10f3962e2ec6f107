package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"periscope/internal/chat"
	"periscope/internal/websocket"
)

// chatRoom is the interaction-plane workload: one room at the paper's
// "popular broadcast" size, below the visibility cap so every member sees
// every message. The two workers are real WebSocket members, joined first
// so they may send; the other 998 are in-memory sinks. Each worker sends a
// chat message and waits for its own echo; every tenth op it also taps
// hearts, which ride beside messages as coalesced deltas.
//
// The loop is closed around the whole room, not only around the worker's own
// echo: every lagCheckEvery ops a worker holds back until no other member is
// more than maxMemberLag frames behind what the worker itself has read
// (awaitMembers). On a quiet box that waits a few times a second, for
// microseconds. When the host takes a core away for tens of milliseconds,
// one shard worker or the member goroutines queued on that core stand still
// while the other core keeps echoing; without the hold the backlog then
// overflows the members' 64-deep queues and the room drops, which is its
// designed answer to overload and not what this workload measures.
type chatRoom struct {
	*env
	room     *chat.Room
	conns    [numWorkers]*websocket.Conn
	socks    [numWorkers]net.Conn // under conns, for read deadlines
	sinks    []*sinkMember
	seq      [numWorkers]uint32
	wsReads  [numWorkers]atomic.Int64 // frames read by each WebSocket member
	left     [numWorkers]atomic.Bool  // worker has left its loop and reads no more
	lagWaits [numWorkers]int64        // times awaitMembers had to wait
}

const (
	chatMembers   = 1000
	chatRoomID    = "bench-room"
	heartEvery    = 10
	heartCount    = 5
	drainSentinel = "bench-drain"
	// echoTimeout turns a lost echo into a failed op instead of a hang.
	echoTimeout = 10 * time.Second
	// A member's backlog stays under maxMemberLag + numWorkers*lagCheckEvery
	// plus the messages in flight, well inside chat.DefaultSendQueueDepth.
	lagCheckEvery = 8
	maxMemberLag  = 8
)

// sinkMember is an in-memory chat.MemberConn that counts what the room
// writes to it.
type sinkMember struct {
	frames atomic.Int64
}

func (s *sinkMember) WritePrepared(*websocket.PreparedMessage) error {
	s.frames.Add(1)
	return nil
}

func (s *sinkMember) Close() error { return nil }

func (w *chatRoom) setup() error {
	if err := w.boot(); err != nil {
		return err
	}
	// Default RoomConfig: no simulated chatters, default shards, queues,
	// heart and presence ticks.
	w.room = w.svc.Chat.Room(chatRoomID, chat.RoomConfig{})
	url := "ws://" + strings.TrimPrefix(w.svc.ChatBaseURL(), "http://") + "/chat/" + chatRoomID
	for i := range w.conns {
		conn, err := websocket.Dial(url, func(network, addr string) (net.Conn, error) {
			nc, err := net.Dial(network, addr)
			w.socks[i] = nc
			return nc, err
		})
		if err != nil {
			return fmt.Errorf("worker %d joining chat: %w", i, err)
		}
		w.conns[i] = conn
	}
	// The server registers a member after the handshake returns; sinks must
	// not take the workers' places under the join cap.
	deadline := time.Now().Add(5 * time.Second)
	for w.room.Members() < numWorkers {
		if time.Now().After(deadline) {
			return errors.New("WebSocket members did not join the room")
		}
		time.Sleep(time.Millisecond)
	}
	for len(w.sinks) < chatMembers-numWorkers {
		s := &sinkMember{}
		if _, ok := w.room.Join(s); !ok {
			return errors.New("room refused a sink member")
		}
		w.sinks = append(w.sinks, s)
	}
	return nil
}

func (w *chatRoom) run(end time.Time, tr *tracer) {
	for i := range w.left {
		w.left[i].Store(false)
	}
	runWorkers(func(i int) {
		defer w.left[i].Store(true)
		conn, log := w.conns[i], &w.logs[i]
		user := fmt.Sprintf("worker-%d", i)
		w.socks[i].SetReadDeadline(end.Add(echoTimeout))
		for time.Now().Before(end) {
			w.seq[i]++
			req := w.seq[i]
			text := fmt.Sprintf("%s message %d", user, req)
			data, err := json.Marshal(chat.Message{User: user, Text: text, SentUnixNano: time.Now().UnixNano()})
			if err != nil {
				log.fail(err)
				return
			}
			root := tr.begin(i, spIteration, req, -1)
			t0 := time.Now()
			sp := tr.begin(i, spChatSend, req, root)
			err = conn.WriteMessage(websocket.OpText, data)
			if err == nil && req%heartEvery == 0 {
				var tap []byte
				if tap, err = json.Marshal(chat.Message{Kind: chat.KindHeart, Count: heartCount}); err == nil {
					err = conn.WriteMessage(websocket.OpText, tap)
				}
			}
			tr.end(i, sp)
			if err != nil {
				log.fail(fmt.Errorf("send: %w", err))
				return
			}
			sp = tr.begin(i, spChatEcho, req, root)
			echo, err := w.awaitEcho(i, user, text)
			tr.end(i, sp)
			t1 := time.Now()
			tr.end(i, root)
			if err != nil {
				log.fail(err)
				return
			}
			log.latency(t0, t1)
			// The room delivers the message to every member; verify holds
			// it to that.
			log.done(echo * chatMembers)
			if req%lagCheckEvery == 0 {
				if err := w.awaitMembers(i, end.Add(echoTimeout)); err != nil {
					log.fail(err)
					return
				}
			}
		}
	})
}

// awaitMembers returns once every other member has all but the last
// maxMemberLag of the frames worker i has read: the sinks by what the room
// has written to them, the other worker by what it has read. Every broadcast
// goes to every member, so the counts run in step; they only grow, so one
// pass that stops at each laggard is enough. The two workers cannot wait on
// each other: only the one that has read more waits.
func (w *chatRoom) awaitMembers(i int, deadline time.Time) error {
	need := w.wsReads[i].Load() - maxMemberLag
	other := (i + 1) % numWorkers
	behind := func(k int) bool {
		if k == len(w.sinks) {
			return !w.left[other].Load() && w.wsReads[other].Load() < need
		}
		return w.sinks[k].frames.Load() < need
	}
	waited := false
	for k := 0; k <= len(w.sinks); {
		if !behind(k) {
			k++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %d has read %d frames and member %d is stuck more than %d behind", i, need+maxMemberLag, k, maxMemberLag)
		}
		waited = true
		// Sleeping idles this core's scheduler, which then steals the
		// goroutines queued on the stalled one.
		time.Sleep(100 * time.Microsecond)
	}
	if waited {
		w.lagWaits[i]++
	}
	return nil
}

// awaitEcho reads this member's frames until its own message comes back and
// returns the echo's payload size. Everything the room sends this member is
// read, so its queue never overflows.
func (w *chatRoom) awaitEcho(i int, user, text string) (int, error) {
	for {
		_, payload, err := w.conns[i].ReadMessage()
		if err != nil {
			return 0, fmt.Errorf("waiting for echo of %q: %w", text, err)
		}
		w.wsReads[i].Add(1)
		var m chat.Message
		if err := json.Unmarshal(payload, &m); err != nil {
			return 0, fmt.Errorf("undecodable frame %q: %w", payload, err)
		}
		if m.Kind == chat.KindChat && m.User == user {
			if m.Text != text {
				return 0, fmt.Errorf("echo %q does not match sent %q", m.Text, text)
			}
			return len(payload), nil
		}
	}
}

// verify drains the room and checks conservation: every per-member enqueue
// the room counted was written to a sink, read by a WebSocket member, or
// dropped.
func (w *chatRoom) verify() []error {
	// Let the last heart taps leave as a delta, then mark the end of the
	// stream: per-member queues are FIFO, so a member that has read the
	// sentinel has read everything before it.
	time.Sleep(2 * chat.DefaultHeartInterval)
	w.room.Broadcast(chat.Message{Kind: chat.KindPresence, Text: drainSentinel})
	var drainErr [numWorkers]error
	runWorkers(func(i int) {
		w.socks[i].SetReadDeadline(time.Now().Add(echoTimeout))
		for {
			_, payload, err := w.conns[i].ReadMessage()
			if err != nil {
				drainErr[i] = fmt.Errorf("worker %d draining: %w", i, err)
				return
			}
			w.wsReads[i].Add(1)
			var m chat.Message
			if json.Unmarshal(payload, &m) == nil && m.Text == drainSentinel {
				return
			}
		}
	})
	var errs []error
	for _, err := range drainErr {
		if err != nil {
			errs = append(errs, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := w.svc.Chat.Snapshot()
		written := w.wsReads[0].Load() + w.wsReads[1].Load()
		for _, s := range w.sinks {
			written += s.frames.Load()
		}
		if written+st.Drops == st.MessagesOut {
			break
		}
		if time.Now().After(deadline) {
			// A drop-oldest enqueue that races the member's own reader is
			// counted as one drop but loses none or two, so each drop may
			// leave the books off by one.
			if diff := written + st.Drops - st.MessagesOut; -st.Drops <= diff && diff <= st.Drops {
				break
			}
			errs = append(errs, fmt.Errorf("chat conservation: %d member writes + %d drops != %d enqueues", written, st.Drops, st.MessagesOut))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := w.svc.Chat.Snapshot()
	if st.SampledOut != 0 {
		errs = append(errs, fmt.Errorf("%d deliveries sampled out below the visibility cap", st.SampledOut))
	}
	// A drop is the room's designed answer to a member that falls behind,
	// so it is not a failed op; but at this size nobody should fall behind.
	if float64(st.Drops) > maxFailRatio*float64(st.MessagesOut) {
		errs = append(errs, fmt.Errorf("room dropped %d of %d deliveries", st.Drops, st.MessagesOut))
	}
	return errs
}

func (w *chatRoom) layerMetrics(out map[string]float64) {
	out["gen.lag_waits"] = float64(w.lagWaits[0] + w.lagWaits[1])
}

func (w *chatRoom) close() {
	for _, c := range w.conns {
		if c != nil {
			c.Close()
		}
	}
	w.shutdown()
}
