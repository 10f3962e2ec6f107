package hls

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// testStream feeds a segmenter synthetic frames, one whole segment at a time.
type testStream struct {
	seg *Segmenter
	pts time.Duration
}

var testNAL = []byte{0, 0, 0, 1, 0x65, 0x88, 0x84}

func newTestStream(seg *Segmenter) *testStream {
	s := &testStream{seg: seg}
	seg.WriteVideo(time.Now(), 0, 0, true, testNAL)
	return s
}

// cut completes the segment under way: one frame that brings it to the
// target duration, and the keyframe that cuts it off.
func (s *testStream) cut() {
	s.pts += s.seg.Target()
	s.seg.WriteVideo(time.Now(), s.pts, s.pts, false, testNAL)
	s.pts += 40 * time.Millisecond
	s.seg.WriteVideo(time.Now(), s.pts, s.pts, true, testNAL)
}

// countingOrigin serves an Origin and counts the playlist requests it has
// answered.
type countingOrigin struct {
	*Origin
	mu        sync.Mutex
	playlists int
}

func (o *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	res := Resolve(r, o.Origin, false)
	if res.Playlist {
		o.mu.Lock()
		o.playlists++
		o.mu.Unlock()
	}
	res.Write(w)
}

func (o *countingOrigin) answered() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.playlists
}

// newHeldEdge wires a replica to a live segmenter's origin over HTTP, the
// way a POP is wired to the origin tier.
func newHeldEdge(t *testing.T, target time.Duration) (*testStream, *countingOrigin, *Replica) {
	t.Helper()
	seg := NewSegmenter(target, 4)
	origin := &countingOrigin{Origin: &Origin{Seg: seg}}
	srv := httptest.NewServer(origin)
	hc := &http.Client{Transport: &http.Transport{}}
	rep := NewReplica(ReplicaConfig{
		Source:         &FillClient{BaseURL: srv.URL, HTTP: hc},
		Window:         seg.WindowSize(),
		TargetDuration: target,
	})
	t.Cleanup(func() {
		rep.Close()
		hc.CloseIdleConnections()
		srv.Close()
	})
	return newTestStream(seg), origin, rep
}

// TestWatchDeliversCutWithoutPoll is the tentpole's point: once a replica
// is being polled, a cut at the origin reaches it — listed and prefetched —
// without any viewer poll in between, over the one request the origin was
// holding.
func TestWatchDeliversCutWithoutPoll(t *testing.T) {
	stream, origin, rep := newHeldEdge(t, 500*time.Millisecond)
	stream.cut()
	stream.cut()

	_, pl, err := rep.Playlist(context.Background()) // the one viewer poll
	if err != nil || len(pl.Segments) != 2 {
		t.Fatalf("first poll: %+v, %v; want segments 0 and 1", pl, err)
	}
	waitUntil(t, func() bool { return origin.Held.Load() == 1 })
	if got := origin.answered(); got != 1 {
		t.Fatalf("origin answered %d playlist requests before the cut, want 1 (the second is held)", got)
	}

	stream.cut()
	waitUntil(t, func() bool { _, ok := rep.CachedSegment(2); return ok })
	if got := origin.answered(); got != 2 {
		t.Errorf("origin answered %d playlist requests by the cut, want 2", got)
	}
	_, pl, err = rep.Playlist(context.Background())
	if err != nil || len(pl.Segments) != 3 || pl.Segments[2].Sequence != 2 {
		t.Errorf("poll after the cut: %+v, %v; want segment 2 listed", pl, err)
	}
	if st := rep.Stats(); st.StaleServes != 0 {
		t.Errorf("StaleServes = %d on a watched replica, want 0", st.StaleServes)
	}
}

// TestWatchLifetime: the watch — and with it the request held at the
// origin — exists only while viewers poll. A warm-up nobody follows with a
// poll is one round; a replica that was polled and then abandoned gives up
// within two rounds; Close ends a hold at once.
func TestWatchLifetime(t *testing.T) {
	stream, origin, rep := newHeldEdge(t, 500*time.Millisecond)
	stream.cut()

	rep.WarmUp()
	rep.wg.Wait() // its goroutine is gone, not parked
	if got, held := origin.answered(), origin.Held.Load(); got != 1 || held != 0 || rep.watch.Load() != watchOff {
		t.Fatalf("after a warm-up nobody polled: %d playlist requests, %d held, watch state %d; want 1, 0, off",
			got, held, rep.watch.Load())
	}
	waitUntil(t, func() bool { _, ok := rep.CachedSegment(0); return ok }) // the round's prefetch

	// One poll, then nobody: the restarted watch's plain first round saw the
	// poll, the two held rounds after it see none.
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return origin.Held.Load() == 1 })
	stream.cut()
	waitUntil(t, func() bool { return origin.answered() == 3 && origin.Held.Load() == 1 })
	stream.cut()
	rep.wg.Wait()
	if got, held := origin.answered(), origin.Held.Load(); got != 4 || held != 0 {
		t.Errorf("abandoned replica: %d playlist requests, %d held; want 4 (warm-up, restart, two held) and 0", got, held)
	}

	// A poll brings it back; Close ends the hold without waiting for a cut.
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return origin.Held.Load() == 1 })
	rep.Close()
	waitUntil(t, func() bool { return origin.Held.Load() == 0 })
	if _, pl, err := rep.Playlist(context.Background()); err != nil || len(pl.Segments) != 3 {
		t.Errorf("closed replica's window: %+v, %v; want what it held", pl, err)
	}
	if rep.watch.Load() != watchOff {
		t.Error("a poll restarted the watch of a closed replica")
	}
}

// TestWatchPacesNonHoldingSource: a source that answers at once whatever
// it is asked (an in-process fake, bench's segmenterSource) is polled no
// faster than every TargetDuration/2.
func TestWatchPacesNonHoldingSource(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(0))
	const target = 200 * time.Millisecond
	rep := NewReplica(ReplicaConfig{Source: src, TargetDuration: target})
	defer rep.Close()

	start := time.Now()
	for time.Since(start) < 5*target/2 {
		if _, _, err := rep.Playlist(context.Background()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The plain first round (which advances: it lists segment 0) and the
	// unpaced round after it, then one round per floor.
	floors := int64(time.Since(start) / (target / 2))
	if got := src.playlistFetches.Load(); got > 2+floors || got < 3 {
		t.Errorf("%d playlist fetches in %v, want 3 to %d", got, time.Since(start), 2+floors)
	}
}

// TestColdPlaylistFailureIsNotARetryStorm: while a replica with nothing
// cached cannot reach its source, viewer polls share the watch's rounds
// instead of starting retries of their own the moment the last ones ended:
// upstream sees one round per backoff period however many viewers poll,
// every poll still gets its error promptly, and the first window is served
// from the next poll on.
func TestColdPlaylistFailureIsNotARetryStorm(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(0))
	src.setPlaylistErr(&UpstreamError{Status: http.StatusBadGateway})
	const attempts, target = 2, 2 * time.Second
	rep := NewReplica(ReplicaConfig{
		Source: src, FillAttempts: attempts, TargetDuration: target,
	})
	defer rep.Close()

	// Eight viewers poll for less than the shortest pause between two
	// failed rounds (half the pacing floor, itself half the target).
	start := time.Now()
	var viewers sync.WaitGroup
	for v := 0; v < 8; v++ {
		viewers.Add(1)
		go func() {
			defer viewers.Done()
			for time.Since(start) < target/4-100*time.Millisecond {
				polled := time.Now()
				if _, _, err := rep.Playlist(context.Background()); err == nil {
					t.Error("poll succeeded against a failing source")
				}
				// At worst a poll waits out the round under way.
				if took := time.Since(polled); took > 300*time.Millisecond {
					t.Errorf("poll took %v to fail", took)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	viewers.Wait()
	if got := src.playlistFetches.Load(); got > attempts {
		t.Errorf("%d upstream attempts within one backoff period, want one round of %d", got, attempts)
	}

	src.setPlaylistErr(nil)
	waitUntil(t, func() bool {
		_, _, err := rep.Playlist(context.Background())
		return err == nil
	})
	fetches := src.playlistFetches.Load()
	if _, pl, err := rep.Playlist(context.Background()); err != nil || len(pl.Segments) != 1 {
		t.Errorf("poll after recovery: %+v, %v", pl, err)
	}
	if got := src.playlistFetches.Load(); got != fetches {
		t.Errorf("a poll of the recovered window went upstream (%d → %d fetches)", fetches, got)
	}
}

// TestSegmenterPublicationWakesWaiters runs 8 waiters against concurrent
// WriteVideo and Finish: every wake-up is a new publication that lists no
// less than the one before, and no waiter misses the end.
func TestSegmenterPublicationWakesWaiters(t *testing.T) {
	seg := NewSegmenter(100*time.Millisecond, 4)
	var waiters sync.WaitGroup
	for i := 0; i < 8; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			pub := seg.pub.Load()
			for !pub.pl.Ended {
				<-pub.next
				next := seg.pub.Load()
				if next == pub || next.newest < pub.newest || len(next.raw) == 0 {
					t.Errorf("woke to publication %p (newest %d) after %p (newest %d)", next, next.newest, pub, pub.newest)
					return
				}
				pub = next
			}
			if want := seg.SegmentCount() - 1; pub.newest != want {
				t.Errorf("final publication lists up to %d, want %d", pub.newest, want)
			}
		}()
	}
	stream := newTestStream(seg)
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			stream.cut()
		}
	}()
	go func() {
		defer writers.Done()
		time.Sleep(time.Millisecond)
		seg.Finish(time.Now())
	}()
	writers.Wait()
	waiters.Wait()
	if !seg.Playlist().Ended || seg.pub.Load().newest != seg.SegmentCount()-1 {
		t.Errorf("last publication: ended %v, newest %d of %d segments", seg.Playlist().Ended, seg.pub.Load().newest, seg.SegmentCount())
	}
}
