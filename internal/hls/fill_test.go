package hls

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTieredSourcePeerFirst(t *testing.T) {
	peerEmpty := newFakeSource()
	peerWarm := newFakeSource()
	peerWarm.setSegment(7, []byte("from-peer"))
	origin := newFakeSource()
	origin.setSegment(7, []byte("from-origin"))

	src := &TieredSource{Peers: []SegmentSource{peerEmpty, peerWarm}, Origin: origin}
	data, err := src.FetchSegment(context.Background(), 7)
	if err != nil || string(data) != "from-peer" {
		t.Fatalf("FetchSegment = %q, %v; want peer copy", data, err)
	}
	st := src.Stats()
	if st.PeerFills != 1 || st.PeerMisses != 1 || st.OriginFills != 0 {
		t.Errorf("stats = %+v, want 1 peer fill, 1 miss, 0 origin", st)
	}
	if st.PeerFillBytes != int64(len("from-peer")) {
		t.Errorf("PeerFillBytes = %d", st.PeerFillBytes)
	}
	if origin.segmentFetches.Load() != 0 {
		t.Error("origin was hit although a peer held the segment")
	}
}

func TestTieredSourceFallsBackToOrigin(t *testing.T) {
	peer1, peer2 := newFakeSource(), newFakeSource()
	origin := newFakeSource()
	origin.setSegment(3, []byte("authoritative"))

	src := &TieredSource{Peers: []SegmentSource{peer1, peer2}, Origin: origin}
	data, err := src.FetchSegment(context.Background(), 3)
	if err != nil || string(data) != "authoritative" {
		t.Fatalf("FetchSegment = %q, %v", data, err)
	}
	st := src.Stats()
	if st.PeerFills != 0 || st.PeerMisses != 2 || st.OriginFills != 1 {
		t.Errorf("stats = %+v, want 0/2/1", st)
	}
}

func TestTieredSourcePlaylistIsOriginOnly(t *testing.T) {
	peer := newFakeSource()
	peer.setPlaylist(livePlaylist(9)) // a stale peer copy that must not be used
	origin := newFakeSource()
	origin.setPlaylist(livePlaylist(1, 2))

	src := &TieredSource{Peers: []SegmentSource{peer}, Origin: origin}
	raw, err := src.FetchPlaylist(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ParseMediaPlaylist(raw)
	if err != nil || len(pl.Segments) != 2 {
		t.Fatalf("playlist = %+v, %v; want the origin's 2-segment window", pl, err)
	}
	if peer.playlistFetches.Load() != 0 {
		t.Error("peer asked for a playlist; playlists are origin-only")
	}
}

// hangingSource blocks every fetch until the caller's context expires —
// a peer that accepts connections but never answers.
type hangingSource struct{ fetches atomic.Int64 }

func (s *hangingSource) FetchPlaylist(ctx context.Context) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (s *hangingSource) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	s.fetches.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestTieredSourcePerTierDeadline pins the budget-carving bugfix: one
// hung peer used to consume the whole fill window, failing the fill even
// though a later tier held the segment.
func TestTieredSourcePerTierDeadline(t *testing.T) {
	hung := &hangingSource{}
	warm := newFakeSource()
	warm.setSegment(4, []byte("from-second-peer"))
	origin := newFakeSource()

	src := &TieredSource{Peers: []SegmentSource{hung, warm}, Origin: origin}
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Millisecond)
	defer cancel()
	start := time.Now()
	data, err := src.FetchSegment(ctx, 4)
	if err != nil || string(data) != "from-second-peer" {
		t.Fatalf("FetchSegment = %q, %v; want the second peer's copy", data, err)
	}
	// The hung peer got remaining/3 (~300ms), not the whole 900ms.
	if e := time.Since(start); e > 700*time.Millisecond {
		t.Errorf("fill took %v; hung peer consumed more than its share", e)
	}
	st := src.Stats()
	if st.PeerMisses != 1 || st.PeerFills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// A hung peer with no caller deadline is bounded by probeTimeout, so the
// origin is still reached.
func TestTieredSourceProbeTimeoutWithoutDeadline(t *testing.T) {
	hung := &hangingSource{}
	origin := newFakeSource()
	origin.setSegment(2, []byte("authoritative"))
	src := &TieredSource{Peers: []SegmentSource{hung}, Origin: origin}
	start := time.Now()
	data, err := src.FetchSegment(context.Background(), 2)
	if err != nil || string(data) != "authoritative" {
		t.Fatalf("FetchSegment = %q, %v", data, err)
	}
	if e := time.Since(start); e < probeTimeout || e > 2*probeTimeout {
		t.Errorf("fill took %v, want ~probeTimeout (%v)", e, probeTimeout)
	}
}

// An open peer breaker is skipped in O(1): no probe, no timeout, and the
// skip is counted separately from real misses.
func TestTieredSourceSkipsOpenBreakerPeer(t *testing.T) {
	hung := &hangingSource{}
	b := NewBreaker(1, time.Minute, nil)
	b.Observe(true) // trip it
	origin := newFakeSource()
	origin.setSegment(9, []byte("authoritative"))

	src := &TieredSource{
		Peers:  []SegmentSource{&BreakerSource{Source: hung, Breaker: b}},
		Origin: origin,
	}
	start := time.Now()
	data, err := src.FetchSegment(context.Background(), 9)
	if err != nil || string(data) != "authoritative" {
		t.Fatalf("FetchSegment = %q, %v", data, err)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Errorf("skip took %v, want O(1)", e)
	}
	if hung.fetches.Load() != 0 {
		t.Error("open breaker still probed the dead peer")
	}
	st := src.Stats()
	if st.PeerSkips != 1 || st.PeerMisses != 0 {
		t.Errorf("stats = %+v, want 1 skip, 0 misses", st)
	}
}

// gatedSource wraps a fakeSource with a concurrency high-water mark and a
// release gate, to observe the per-broadcast fill cap from upstream.
type gatedSource struct {
	inner    *fakeSource
	cur, max atomic.Int64
	release  chan struct{}
}

func newGatedSource() *gatedSource {
	return &gatedSource{inner: newFakeSource(), release: make(chan struct{})}
}

func (s *gatedSource) FetchPlaylist(ctx context.Context) ([]byte, error) {
	return s.inner.FetchPlaylist(ctx)
}

func (s *gatedSource) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	cur := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		max := s.max.Load()
		if cur <= max || s.max.CompareAndSwap(max, cur) {
			break
		}
	}
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.inner.FetchSegment(ctx, seq)
}

// TestReplicaFillCapBoundsConcurrency pins the per-broadcast fill cap: a
// hot broadcast's upstream fetch concurrency never exceeds the cap, the
// queued fills are counted (a saturated cap is observable, not silent),
// and a capped broadcast cannot starve another replica's fills.
func TestReplicaFillCapBoundsConcurrency(t *testing.T) {
	const fills, queued = DefaultFillConcurrency + 4, 4
	hot := newGatedSource()
	for seq := 0; seq < fills; seq++ {
		hot.inner.setSegment(seq, []byte{byte(seq)})
	}
	repA := NewReplica(ReplicaConfig{Source: hot})

	var wg sync.WaitGroup
	for seq := 0; seq < fills; seq++ {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			if _, err := repA.Segment(context.Background(), seq); err != nil {
				t.Errorf("segment %d: %v", seq, err)
			}
		}(seq)
	}
	// The cap admits exactly its upstream fetches; the other four queue.
	waitUntil(t, func() bool { return hot.cur.Load() == DefaultFillConcurrency })
	waitUntil(t, func() bool { return repA.Stats().FillCapWaits == queued })

	// A different broadcast's replica fills promptly while A is saturated:
	// the cap is per broadcast, not per POP.
	cold := newFakeSource()
	cold.setSegment(0, []byte("other"))
	repB := NewReplica(ReplicaConfig{Source: cold})
	done := make(chan error, 1)
	go func() {
		_, err := repB.Segment(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("other replica's fill failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("other replica's fill starved behind the capped broadcast")
	}

	close(hot.release)
	wg.Wait()
	if got := hot.max.Load(); got != DefaultFillConcurrency {
		t.Errorf("upstream concurrency high-water = %d, want %d", got, DefaultFillConcurrency)
	}
	if st := repA.Stats(); st.Fills != fills {
		t.Errorf("fills = %d, want %d", st.Fills, fills)
	}
}

// TestReplicaPrefetchSkipsWhenCapSaturated: a watch round's prefetches
// must not queue behind a saturated broadcast's demand fills.
func TestReplicaPrefetchSkipsWhenCapSaturated(t *testing.T) {
	hot := newGatedSource()
	var listed []int
	for seq := 0; seq <= DefaultFillConcurrency; seq++ {
		hot.inner.setSegment(seq, []byte{byte(seq)})
		listed = append(listed, seq)
	}
	hot.inner.setPlaylist(livePlaylist(listed...))
	rep := NewReplica(ReplicaConfig{Source: hot})
	defer rep.Close()

	// Saturate the cap with demand fills held open at the source.
	for seq := 0; seq < DefaultFillConcurrency; seq++ {
		go rep.Segment(context.Background(), seq)
	}
	waitUntil(t, func() bool { return hot.cur.Load() == DefaultFillConcurrency })

	// The first poll is answered once the round has offered its listed
	// segments for prefetch; while saturated the offer must skip, not block.
	polled := make(chan error, 1)
	go func() {
		_, _, err := rep.Playlist(context.Background())
		polled <- err
	}()
	select {
	case err := <-polled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("prefetch blocked on the saturated fill cap")
	}
	if rep.Stats().PrefetchDropped == 0 {
		t.Error("skipped prefetch not counted")
	}
	if got := hot.cur.Load(); got != DefaultFillConcurrency {
		t.Errorf("%d upstream fetches under a fill cap of %d", got, DefaultFillConcurrency)
	}
	close(hot.release)
}

// TestReplicaCloseEndsPrefetches: the prefetches a watch round starts end
// with their replica. Close returns promptly and leaves no upstream fetch
// of the replica's running, even against a source that never answers.
func TestReplicaCloseEndsPrefetches(t *testing.T) {
	hung := newGatedSource()
	hung.inner.setPlaylist(livePlaylist(0, 1, 2))
	defer close(hung.release)
	rep := NewReplica(ReplicaConfig{Source: hung})
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return hung.cur.Load() == 3 })

	start := time.Now()
	rep.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close with three prefetches hanging upstream took %v", took)
	}
	if n := hung.cur.Load(); n != 0 {
		t.Errorf("%d upstream fetches still running after Close", n)
	}
}

func TestReplicaWarmUpPrefetchesWindow(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(4, 5, 6))
	for seq := 4; seq <= 6; seq++ {
		src.setSegment(seq, bytes.Repeat([]byte{byte(seq)}, 32))
	}
	rep := NewReplica(ReplicaConfig{Source: src})
	defer rep.Close()

	// A warm-up nobody polls is one round of the watch: the playlist
	// fetch, the prefetches it starts, and the goroutines are gone.
	rep.WarmUp()
	rep.wg.Wait()
	if st := rep.Stats(); st.Warmups != 1 || st.PlaylistRefreshes != 1 || rep.watch.Load() != watchOff {
		t.Fatalf("after the warm-up: %d warm-ups, %d playlist fetches, watch state %d; want 1, 1, off",
			st.Warmups, st.PlaylistRefreshes, rep.watch.Load())
	}
	if n := src.segmentFetches.Load(); n != 3 {
		t.Fatalf("warm-up prefetched %d segments, want 3", n)
	}
	for seq := 4; seq <= 6; seq++ {
		if _, ok := rep.CachedSegment(seq); !ok {
			t.Errorf("segment %d not warmed", seq)
		}
	}
	// CachedSegment is cache-only: the probe above must not have fetched.
	if got := src.segmentFetches.Load(); got != 3 {
		t.Errorf("origin segment fetches = %d, want 3 (prefetch only)", got)
	}
	if _, ok := rep.CachedSegment(99); ok {
		t.Error("CachedSegment invented a segment")
	}

	// Warming again once new content exists fetches and prefetches it.
	src.setPlaylist(livePlaylist(5, 6, 7))
	src.setSegment(7, bytes.Repeat([]byte{7}, 32))
	rep.WarmUp()
	rep.wg.Wait()
	if n := src.segmentFetches.Load() - 3; n != 1 {
		t.Fatalf("re-warm prefetched %d segments, want 1 (segment 7)", n)
	}
	if _, ok := rep.CachedSegment(7); !ok {
		t.Error("re-warm did not prefetch the newly listed segment")
	}
	if st := rep.Stats(); st.Warmups != 2 {
		t.Errorf("Warmups = %d, want 2", st.Warmups)
	}

	// The first viewer hits a fully warm edge: the playlist comes from
	// cache at once — counted stale, since no watch was confirming it, and
	// restarting one — and the segments without origin traffic.
	_, pl, err := rep.Playlist(context.Background())
	if err != nil || len(pl.Segments) != 3 || pl.Segments[2].Sequence != 7 {
		t.Fatalf("first viewer's playlist = %+v, %v", pl, err)
	}
	if _, err := rep.Segment(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats(); st.StaleServes != 1 || src.segmentFetches.Load() != 4 {
		t.Errorf("viewer after warm-up: %d stale serves, %d origin segment fetches; want 1, 4",
			st.StaleServes, src.segmentFetches.Load())
	}
	waitUntil(t, func() bool { return rep.watch.Load() == watchOK })
	// While that watch runs, a warm-up has nothing to start.
	rep.WarmUp()
	if st := rep.Stats(); st.Warmups != 2 {
		t.Errorf("warm-up of a watched replica counted: Warmups = %d, want 2", st.Warmups)
	}
}

// TestFillRefusesHostileBodies: a fill reads exactly the body the upstream
// declares, so an upstream that declares a terabyte, declares no length or
// stops mid-segment fails the fill — before allocating the declared size,
// and without a short segment reaching the cache.
func TestFillRefusesHostileBodies(t *testing.T) {
	segment := bytes.Repeat([]byte{0x47, 1, 2, 3}, 16<<10)
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"terabyte Content-Length", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
			w.Write(segment)
		}},
		{"chunked", func(w http.ResponseWriter, r *http.Request) {
			w.Write(segment[:100])
			w.(http.Flusher).Flush()
			w.Write(segment[100:])
		}},
		{"truncated mid-segment", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(segment)))
			w.Write(segment[:len(segment)/2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			rep := NewReplica(ReplicaConfig{Source: &FillClient{BaseURL: srv.URL}, FillAttempts: 1})
			defer rep.Close()
			if data, err := rep.Segment(context.Background(), 1); err == nil {
				t.Fatalf("fill succeeded with %d of %d bytes", len(data), len(segment))
			}
			if data, ok := rep.CachedSegment(1); ok {
				t.Errorf("cache holds a %d-byte segment", len(data))
			}
			if st := rep.Stats(); st.FillErrors != 1 || st.FillBytes != 0 || st.CachedSegments != 0 {
				t.Errorf("stats = %+v, want one failed fill and nothing cached", st)
			}
		})
	}
}
