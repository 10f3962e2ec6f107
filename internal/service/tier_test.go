package service

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"periscope/internal/chat"
	"periscope/internal/hls"
)

// count reports the number of mounts (tests only; the snapshot counts
// through each).
func (t *mounts[T]) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// replica returns the broadcast's edge cache, nil when not registered.
func (p *cdnPOP) replica(id string) *hls.Replica { return p.get(id) }

// TestMountTableIdentityRule pins the one implementation of the
// segmenter-identity rule directly, on the generic type.
func TestMountTableIdentityRule(t *testing.T) {
	segA, segB := hls.NewSegmenter(time.Second, 3), hls.NewSegmenter(time.Second, 3)
	builds := 0
	build := func() *int { builds++; return new(int) }

	var tab mounts[*int]
	if tab.has("cast") || tab.get("cast") != nil {
		t.Fatal("zero table is not empty")
	}
	tab.register("cast", segA, build)
	first := tab.get("cast")
	if first == nil || !tab.has("cast") {
		t.Fatal("register did not mount")
	}

	steps := []struct {
		name     string
		do       func()
		mounted  bool
		sameAsA  bool
		buildsTo int
	}{
		{"same segmenter keeps the handler", func() { tab.register("cast", segA, build) }, true, true, 1},
		{"stale unregister is a no-op", func() { tab.unregister("cast", segB) }, true, true, 1},
		{"different segmenter replaces", func() { tab.register("cast", segB, build) }, true, false, 2},
		{"unregister by the replaced segmenter is a no-op", func() { tab.unregister("cast", segA) }, true, false, 2},
		{"unregister by the current segmenter removes", func() { tab.unregister("cast", segB) }, false, false, 2},
		{"nil unregisters unconditionally", func() {
			tab.register("cast", segA, build)
			tab.unregister("cast", nil)
		}, false, false, 3},
		{"unregistering the absent is a no-op", func() { tab.unregister("cast", nil) }, false, false, 3},
	}
	for _, st := range steps {
		st.do()
		got := tab.get("cast")
		if tab.has("cast") != st.mounted || (got != nil) != st.mounted {
			t.Fatalf("%s: mounted = %v, want %v", st.name, tab.has("cast"), st.mounted)
		}
		if st.mounted && (got == first) != st.sameAsA {
			t.Fatalf("%s: handler identity: same as first = %v, want %v", st.name, got == first, st.sameAsA)
		}
		if builds != st.buildsTo {
			t.Fatalf("%s: %d handlers built, want %d", st.name, builds, st.buildsTo)
		}
	}
	if tab.count() != 0 {
		t.Fatalf("count = %d, want 0", tab.count())
	}
}

// TestMountTableConcurrent runs register/lookup/walk/unregister from many
// goroutines; under -race it is the table's locking test.
func TestMountTableConcurrent(t *testing.T) {
	var tab mounts[*int]
	segs := []*hls.Segmenter{hls.NewSegmenter(time.Second, 3), hls.NewSegmenter(time.Second, 3)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("cast-%d", i%4)
				seg := segs[(g+i)%2]
				switch i % 4 {
				case 0:
					tab.register(id, seg, func() *int { return new(int) })
				case 1:
					if h := tab.get(id); h != nil {
						_ = *h
					}
					tab.has(id)
				case 2:
					tab.each(func(_ string, h *int) { _ = *h })
				case 3:
					tab.unregister(id, seg)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		tab.unregister(fmt.Sprintf("cast-%d", i), nil)
	}
	if tab.count() != 0 {
		t.Fatalf("count = %d after unconditional unregister, want 0", tab.count())
	}
}

// TestEndpointClosesStalledHeader: a client that sends half a request line
// and stalls is dropped within the header timeout, and a well-behaved
// client on another connection is served meanwhile.
func TestEndpointClosesStalledHeader(t *testing.T) {
	t.Parallel()
	var ep endpoint
	if err := ep.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})); err != nil {
		t.Fatal(err)
	}
	defer ep.close()

	stalled, err := net.Dial("tcp", ep.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := stalled.Write([]byte("GET /hls/x/pl")); err != nil {
		t.Fatal(err)
	}

	if resp, body := httpGet(t, ep.baseURL()+"/hls/x/playlist.m3u8"); resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("well-behaved GET beside a stalled one = %d %q", resp.StatusCode, body)
	}

	// The server may say 400 on its way out; what matters is that it
	// closes: reading to EOF must finish before the deadline.
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("server still holds a header-stalled connection after %v: %v",
			time.Since(start).Round(time.Millisecond), err)
	}
}

// TestEndpointHeaderTimeoutSparesHijackedConn: the header timeout is a
// deadline on reading the request head only — a chat member's hijacked
// WebSocket idle for longer than it still receives a broadcast.
func TestEndpointHeaderTimeoutSparesHijackedConn(t *testing.T) {
	t.Parallel()
	srv := chat.NewServer()
	defer srv.Close()
	var ep endpoint
	if err := ep.listen(srv); err != nil {
		t.Fatal(err)
	}
	defer ep.close()
	room := srv.Room("cast", chat.RoomConfig{})
	member, err := chat.Join(chat.ClientConfig{ChatURL: "ws://" + ep.addr + "/chat/cast"})
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	waitFor(t, func() bool { return room.Members() == 1 }, "the member to join")

	time.Sleep(readHeaderTimeout + 500*time.Millisecond)
	room.Broadcast(chat.Message{User: "u", Text: "still there?"})
	waitFor(t, func() bool { return member.Stats().MessagesReceived == 1 }, "the broadcast to reach the idle member")
}
