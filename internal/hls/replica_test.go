package hls

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/avc"
	"periscope/internal/media"
)

// fakeSource is an in-process origin for replica tests: it counts fetches
// and can hold segment fills open to force request coalescing.
type fakeSource struct {
	mu       sync.Mutex
	playlist []byte
	segs     map[int][]byte
	// segErrs returns the given error for a segment until cleared;
	// segFail fails the next N fetches of a segment, then serves it.
	segErrs map[int]error
	segFail map[int]int
	perSeq  map[int]int64
	// plErr, while set, fails every playlist fetch.
	plErr error

	playlistFetches atomic.Int64
	segmentFetches  atomic.Int64
	// gate, when non-nil, blocks segment fetches until closed.
	gate chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		segs:    map[int][]byte{},
		segErrs: map[int]error{},
		segFail: map[int]int{},
		perSeq:  map[int]int64{},
	}
}

func (s *fakeSource) setSegErr(seq int, err error) {
	s.mu.Lock()
	s.segErrs[seq] = err
	s.mu.Unlock()
}

// failNext makes the next n fetches of seq fail with err, after which the
// stored segment (if any) is served — a transient upstream fault.
func (s *fakeSource) failNext(seq, n int, err error) {
	s.mu.Lock()
	s.segFail[seq] = n
	s.segErrs[seq] = err
	s.mu.Unlock()
}

func (s *fakeSource) fetchesFor(seq int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perSeq[seq]
}

func (s *fakeSource) setPlaylist(pl MediaPlaylist) {
	s.mu.Lock()
	s.playlist = pl.Marshal()
	s.mu.Unlock()
}

func (s *fakeSource) setPlaylistErr(err error) {
	s.mu.Lock()
	s.plErr = err
	s.mu.Unlock()
}

func (s *fakeSource) setSegment(seq int, data []byte) {
	s.mu.Lock()
	s.segs[seq] = data
	s.mu.Unlock()
}

func (s *fakeSource) FetchPlaylist(ctx context.Context) ([]byte, error) {
	s.playlistFetches.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plErr != nil {
		return nil, s.plErr
	}
	if s.playlist == nil {
		return nil, &UpstreamError{Status: http.StatusNotFound}
	}
	return append([]byte(nil), s.playlist...), nil
}

func (s *fakeSource) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	s.segmentFetches.Add(1)
	s.mu.Lock()
	s.perSeq[seq]++
	gate := s.gate
	data, ok := s.segs[seq]
	segErr := s.segErrs[seq]
	if segErr != nil {
		if n, transient := s.segFail[seq]; transient {
			if n <= 0 {
				segErr = nil
			} else {
				s.segFail[seq] = n - 1
			}
		}
	}
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if segErr != nil {
		return nil, segErr
	}
	if !ok {
		return nil, &UpstreamError{Status: http.StatusNotFound}
	}
	return data, nil
}

func livePlaylist(seqs ...int) MediaPlaylist {
	pl := MediaPlaylist{TargetDuration: 4}
	if len(seqs) > 0 {
		pl.MediaSequence = seqs[0]
	}
	for _, s := range seqs {
		pl.Segments = append(pl.Segments, Segment{URI: SegmentName(s), Duration: 3.6, Sequence: s})
	}
	return pl
}

func TestReplicaSingleFlightSegmentFill(t *testing.T) {
	src := newFakeSource()
	src.setSegment(0, bytes.Repeat([]byte{0x47}, 188))
	gate := make(chan struct{})
	src.gate = gate

	rep := NewReplica(ReplicaConfig{Source: src, Window: 4})

	const viewers = 100
	var wg sync.WaitGroup
	errs := make([]error, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := rep.Segment(context.Background(), 0)
			if err == nil && len(data) != 188 {
				err = fmt.Errorf("got %d bytes", len(data))
			}
			errs[i] = err
		}(i)
	}
	// Wait until the one origin fill is in flight and the rest have had a
	// chance to pile onto it, then release.
	waitUntil(t, func() bool { return src.segmentFetches.Load() == 1 })
	waitUntil(t, func() bool { return rep.Stats().SingleFlightHits >= viewers-1 })
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("viewer %d: %v", i, err)
		}
	}
	if got := src.segmentFetches.Load(); got != 1 {
		t.Fatalf("origin saw %d segment fetches for %d viewers, want 1", got, viewers)
	}
	st := rep.Stats()
	if st.Fills != 1 || st.SingleFlightHits != viewers-1 {
		t.Errorf("stats = %+v, want 1 fill and %d single-flight hits", st, viewers-1)
	}
	// Subsequent requests are cache hits: still one origin fetch.
	if _, err := rep.Segment(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := src.segmentFetches.Load(); got != 1 {
		t.Errorf("cache hit still reached origin (%d fetches)", got)
	}
}

// TestFillRetrySurvivesTransientError pins the retry-in-flight bugfix: a
// demand fill whose first attempt hits a transient upstream fault used to
// publish the error to every coalesced single-flight waiter; now the
// retry budget lives inside the flight and the waiters only ever see the
// final outcome.
func TestFillRetrySurvivesTransientError(t *testing.T) {
	src := newFakeSource()
	src.setSegment(0, bytes.Repeat([]byte{0x47}, 188))
	// First two attempts fail with a retryable 502, third succeeds.
	src.failNext(0, 2, &UpstreamError{Status: http.StatusBadGateway})

	rep := NewReplica(ReplicaConfig{
		Source:       src,
		Window:       4,
		RetryBackoff: time.Millisecond,
	})

	const viewers = 8
	var wg sync.WaitGroup
	errs := make([]error, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := rep.Segment(context.Background(), 0)
			if err == nil && len(data) != 188 {
				err = fmt.Errorf("got %d bytes", len(data))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("viewer %d saw the transient error: %v", i, err)
		}
	}
	if got := src.fetchesFor(0); got != 3 {
		t.Errorf("origin attempts = %d, want 3 (2 failures + 1 success)", got)
	}
	st := rep.Stats()
	if st.Fills != 1 {
		t.Errorf("Fills = %d, want 1 — retries must not count as fills", st.Fills)
	}
	if st.FillRetries != 2 {
		t.Errorf("FillRetries = %d, want 2", st.FillRetries)
	}
	if st.FillErrors != 0 {
		t.Errorf("FillErrors = %d, want 0 for a fill that recovered", st.FillErrors)
	}
}

// TestFillGivesUpWithoutTrailingBackoff: a fill whose every attempt fails
// with a 5xx reports the failure after its last attempt — no backoff is
// slept and no retry counted for an attempt that never comes — and Close
// during a backoff ends it instead of waiting it out.
func TestFillGivesUpWithoutTrailingBackoff(t *testing.T) {
	const backoff = 40 * time.Millisecond
	src := newFakeSource()
	src.setSegErr(3, &UpstreamError{Status: http.StatusBadGateway})
	rep := NewReplica(ReplicaConfig{Source: src, Window: 4, RetryBackoff: backoff})
	start := time.Now()
	if _, err := rep.Segment(context.Background(), 3); err == nil {
		t.Fatal("a fill whose every attempt failed reported success")
	}
	elapsed := time.Since(start)
	attempts := DefaultFillAttempts
	if got := src.fetchesFor(3); got != int64(attempts) {
		t.Fatalf("%d upstream attempts, want %d", got, attempts)
	}
	if got := rep.Stats().FillRetries; got != int64(attempts-1) {
		t.Errorf("FillRetries = %d, want %d: the last attempt is not followed by a retry", got, attempts-1)
	}
	// The ceilings of the backoffs between the attempts, plus a quarter
	// backoff for scheduling; a backoff after the last attempt would add at
	// least half of the next ceiling, twice that.
	bound := backoff / 4
	for i := 0; i < attempts-1; i++ {
		bound += backoff << i
	}
	if elapsed >= bound {
		t.Errorf("failed fill took %v, want under %v (the backoffs between its attempts)", elapsed, bound)
	}

	src.setPlaylistErr(&UpstreamError{Status: http.StatusBadGateway})
	rep = NewReplica(ReplicaConfig{Source: src, Window: 4, RetryBackoff: time.Second})
	rep.WarmUp()
	for src.playlistFetches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The watch's first attempt failed: it is in (or about to enter) a
	// backoff of at least 500 ms, well inside the fill's 5 s budget.
	start = time.Now()
	rep.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close during a fill backoff took %v, want a few ms", d)
	}
}

// Terminal upstream answers (404: the origin is alive and says no) must
// not burn retry attempts.
func TestFillRetrySkipsTerminalErrors(t *testing.T) {
	src := newFakeSource()
	rep := NewReplica(ReplicaConfig{Source: src, Window: 4, RetryBackoff: time.Millisecond})
	if _, err := rep.Segment(context.Background(), 7); err == nil {
		t.Fatal("want 404 error")
	}
	if got := src.fetchesFor(7); got != 1 {
		t.Errorf("origin attempts = %d, want 1 — 404 is terminal", got)
	}
}

func TestNegativeCacheShieldsUpstream(t *testing.T) {
	src := newFakeSource()
	clock := time.Unix(5000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	rep := NewReplica(ReplicaConfig{
		Source:       src,
		Window:       4,
		FillAttempts: 1,
		NegativeTTL:  time.Second,
		Now:          now,
	})

	// First miss pays one upstream attempt and fails.
	if _, err := rep.Segment(context.Background(), 3); err == nil {
		t.Fatal("want 404")
	}
	if got := src.fetchesFor(3); got != 1 {
		t.Fatalf("attempts = %d", got)
	}
	// Requests inside the TTL are answered from the negative cache.
	for i := 0; i < 5; i++ {
		if _, err := rep.Segment(context.Background(), 3); err == nil {
			t.Fatal("negative cache returned success")
		}
	}
	if got := src.fetchesFor(3); got != 1 {
		t.Errorf("negative cache leaked %d extra upstream attempts", got-1)
	}
	if st := rep.Stats(); st.NegativeHits != 5 {
		t.Errorf("NegativeHits = %d, want 5", st.NegativeHits)
	}
	// Past the TTL the segment is probed again — and can now succeed.
	src.setSegment(3, bytes.Repeat([]byte{0x47}, 188))
	clockMu.Lock()
	clock = clock.Add(2 * time.Second)
	clockMu.Unlock()
	data, err := rep.Segment(context.Background(), 3)
	if err != nil || len(data) != 188 {
		t.Fatalf("post-TTL fill: %d bytes, err %v", len(data), err)
	}
	if got := src.fetchesFor(3); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestNegativeCacheIsSwept is the unbounded-map regression: a client
// walking distinct sequences that all 404 (old sequence numbers on a long
// broadcast) must not leave one negative entry behind per sequence
// forever. Entries past NegativeTTL go on the next insert and when the
// window slides.
func TestNegativeCacheIsSwept(t *testing.T) {
	src := newFakeSource()
	clock := time.Unix(5000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	negLen := func(rep *Replica) int {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		n := 0
		for _, f := range rep.fills {
			if !f.until.IsZero() {
				n++
			}
		}
		return n
	}
	rep := NewReplica(ReplicaConfig{
		Source:       src,
		Window:       4,
		FillAttempts: 1,
		NegativeTTL:  time.Second,
		Now:          now,
	})

	const walked = 200
	for seq := 0; seq < walked; seq++ {
		if _, err := rep.Segment(context.Background(), seq); err == nil {
			t.Fatalf("segment %d: want 404", seq)
		}
	}
	if got := negLen(rep); got != walked {
		t.Fatalf("negative entries inside the TTL = %d, want %d", got, walked)
	}
	// One more miss past the TTL: the insert sweeps the expired entries.
	advance(2 * time.Second)
	if _, err := rep.Segment(context.Background(), walked); err == nil {
		t.Fatal("want 404")
	}
	if got := negLen(rep); got != 1 {
		t.Errorf("negative entries after the TTL = %d, want 1 (the fresh one)", got)
	}
	// With no further miss, the sliding window sweeps the rest.
	advance(2 * time.Second)
	src.setSegment(walked+1, bytes.Repeat([]byte{0x47}, 188))
	if _, err := rep.Segment(context.Background(), walked+1); err != nil {
		t.Fatal(err)
	}
	if got := negLen(rep); got != 0 {
		t.Errorf("negative entries after the window slid = %d, want 0", got)
	}
}

// TestReplicaFillSurvivesInitiatorDisconnect pins the detached-fill
// property: the viewer whose request started a single-flight fill
// disconnecting must not fail the fetch for the coalesced waiters.
func TestReplicaFillSurvivesInitiatorDisconnect(t *testing.T) {
	src := newFakeSource()
	src.setSegment(0, bytes.Repeat([]byte{0x47}, 188))
	gate := make(chan struct{})
	src.gate = gate

	rep := NewReplica(ReplicaConfig{Source: src, Window: 4})

	initiatorCtx, cancelInitiator := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := rep.Segment(initiatorCtx, 0)
		initiatorErr <- err
	}()
	waitUntil(t, func() bool { return src.segmentFetches.Load() == 1 })

	// A second viewer coalesces, then the initiator disconnects.
	waiterData := make(chan []byte, 1)
	go func() {
		data, err := rep.Segment(context.Background(), 0)
		if err != nil {
			t.Errorf("coalesced waiter failed: %v", err)
		}
		waiterData <- data
	}()
	waitUntil(t, func() bool { return rep.Stats().SingleFlightHits == 1 })
	cancelInitiator()
	if err := <-initiatorErr; err != context.Canceled {
		t.Fatalf("initiator error = %v, want context.Canceled", err)
	}

	close(gate)
	if data := <-waiterData; len(data) != 188 {
		t.Fatalf("waiter got %d bytes", len(data))
	}
	st := rep.Stats()
	if st.FillErrors != 0 {
		t.Errorf("fill errors = %d after initiator disconnect, want 0", st.FillErrors)
	}
	if src.segmentFetches.Load() != 1 {
		t.Errorf("origin fetches = %d, want 1", src.segmentFetches.Load())
	}
}

// TestReplicaServesLastWindowWhileWatchFails: a watch round that fails
// changes nothing a viewer sees — the last window is still served at once,
// counted stale, its age growing — and the first round that succeeds
// installs the source's new window.
func TestReplicaServesLastWindowWhileWatchFails(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(0))

	var clock atomic.Int64 // seconds past the epoch below
	rep := NewReplica(ReplicaConfig{
		Source:         src,
		Window:         4,
		TargetDuration: 20 * time.Millisecond, // a round every 10 ms
		FillAttempts:   1,
		RetryBackoff:   time.Millisecond,
		Now:            func() time.Time { return time.Unix(1000+clock.Load(), 0) },
	})
	defer rep.Close()

	// No window yet: the poll waits for the watch's first round.
	raw, _, err := rep.Playlist(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats(); st.StaleServes != 0 || st.PlaylistAge != 0 {
		t.Fatalf("fresh window: %d stale serves, age %v", st.StaleServes, st.PlaylistAge)
	}

	// The source starts failing and its playlist moves on: polls keep
	// getting the last window, now counted stale.
	src.setPlaylistErr(&UpstreamError{Status: http.StatusBadGateway})
	src.setPlaylist(livePlaylist(1, 2))
	waitUntil(t, func() bool {
		got, _, err := rep.Playlist(context.Background())
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("poll during the outage: %q, %v; want the last window", got, err)
		}
		return rep.Stats().StaleServes > 0
	})
	// Nothing confirms the window any more, so its age grows with the clock.
	clock.Store(6)
	if age := rep.Stats().PlaylistAge; age != 6*time.Second {
		t.Errorf("PlaylistAge = %v after 6 s without a confirming round, want 6s", age)
	}

	// Recovery: the next round installs the new window and confirms it.
	src.setPlaylistErr(nil)
	waitUntil(t, func() bool {
		_, pl, err := rep.Playlist(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return len(pl.Segments) == 2 && pl.Segments[1].Sequence == 2
	})
	if age := rep.Stats().PlaylistAge; age != 0 {
		t.Errorf("PlaylistAge after recovery = %v, want 0", age)
	}
	stale := rep.Stats().StaleServes
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rep.Stats().StaleServes; got != stale {
		t.Errorf("a poll of a confirmed window counted stale (%d → %d)", stale, got)
	}
}

// TestReplicaFinalPlaylistEndsWatch: a final playlist is the watch's last
// round — nothing is running or held afterwards — and it is served for
// ever without a stale serve or another fetch.
func TestReplicaFinalPlaylistEndsWatch(t *testing.T) {
	src := newFakeSource()
	ended := livePlaylist(3, 4)
	ended.Ended = true
	src.setPlaylist(ended)

	var clock atomic.Int64
	rep := NewReplica(ReplicaConfig{
		Source:         src,
		TargetDuration: 20 * time.Millisecond,
		Now:            func() time.Time { return time.Unix(1000+clock.Load(), 0) },
	})
	if _, pl, err := rep.Playlist(context.Background()); err != nil || !pl.Ended {
		t.Fatalf("pl=%+v err=%v", pl, err)
	}
	rep.wg.Wait() // the watch and its prefetches are gone, not merely idle
	if got := rep.watch.Load(); got != watchOff {
		t.Fatalf("watch state %d after a final playlist, want off", got)
	}
	// The final round prefetched its two listed segments.
	if n := src.segmentFetches.Load(); n != 2 {
		t.Fatalf("final round prefetched %d segments, want 2", n)
	}

	clock.Store(3600)
	for i := 0; i < 10; i++ {
		if _, pl, err := rep.Playlist(context.Background()); err != nil || !pl.Ended {
			t.Fatalf("pl=%+v err=%v", pl, err)
		}
	}
	rep.WarmUp()
	rep.wg.Wait()
	if n := src.segmentFetches.Load() - 2; n != 0 {
		t.Errorf("final playlist started %d more prefetches", n)
	}
	st := rep.Stats()
	if st.StaleServes != 0 || !st.Final || st.PlaylistAge != 0 || st.Warmups != 0 {
		t.Errorf("stats = %+v, want final with no stale serves, age or warm-up", st)
	}
	if rep.watch.Load() != watchOff || src.playlistFetches.Load() != 1 {
		t.Errorf("final playlist refetched (%d fetches, watch state %d)", src.playlistFetches.Load(), rep.watch.Load())
	}
}

// TestReplicaEvictionParity pins the edge cache window to the origin
// segmenter's fetch horizon: window+2 segments, older ones evicted.
func TestReplicaEvictionParity(t *testing.T) {
	origin := NewSegmenter(DefaultSegmentTarget, 4)
	src := newFakeSource()
	rep := NewReplica(ReplicaConfig{Source: src, Window: origin.WindowSize()})

	const total = 20
	for seq := 0; seq < total; seq++ {
		src.setSegment(seq, []byte{byte(seq)})
		if _, err := rep.Segment(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	st := rep.Stats()
	if st.CachedSegments != origin.MaxKeep() {
		t.Fatalf("edge caches %d segments, origin horizon is %d", st.CachedSegments, origin.MaxKeep())
	}
	if want := int64(total - origin.MaxKeep()); st.Evictions != want {
		t.Errorf("evictions = %d, want %d", st.Evictions, want)
	}
	// An evicted sequence re-fills from origin rather than resurrecting.
	before := src.segmentFetches.Load()
	if _, err := rep.Segment(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if src.segmentFetches.Load() != before+1 {
		t.Errorf("evicted segment did not re-fill from origin")
	}
	// The late fill lands below the horizon: it is not held again, and
	// dropping it counts as one more eviction.
	if _, ok := rep.CachedSegment(0); ok {
		t.Error("late fill of evicted segment 0 is cached again")
	}
	late := rep.Stats()
	if late.CachedSegments != origin.MaxKeep() {
		t.Errorf("after the late fill the edge caches %d segments, want %d", late.CachedSegments, origin.MaxKeep())
	}
	if late.Evictions != st.Evictions+1 {
		t.Errorf("evictions after the late fill = %d, want %d", late.Evictions, st.Evictions+1)
	}
}

// TestReplicaPrefetchWarmsListedSegments verifies that a playlist fill
// schedules background fills for the segments it lists.
func TestReplicaPrefetchWarmsListedSegments(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(5, 6, 7))
	for seq := 5; seq <= 7; seq++ {
		src.setSegment(seq, []byte{byte(seq)})
	}
	rep := NewReplica(ReplicaConfig{Source: src})
	defer rep.Close()
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return rep.Stats().Fills == 3 })
	if st := rep.Stats(); st.CachedSegments != 3 || st.Fills != 3 {
		t.Fatalf("prefetch stats = %+v, want 3 cached/3 fills", st)
	}
	// Demand for a prefetched segment is a pure cache hit.
	before := src.segmentFetches.Load()
	if _, err := rep.Segment(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if src.segmentFetches.Load() != before {
		t.Errorf("prefetched segment refetched on demand")
	}
}

func TestReplicaServeHTTPOverOriginHTTP(t *testing.T) {
	seg := NewSegmenter(500*time.Millisecond, 4)
	feedSegmenterFor(t, seg, 4*time.Second)
	seg.Finish(time.Unix(3000, 0))
	origin := httptest.NewServer(&Origin{Seg: seg})
	defer origin.Close()

	rep := NewReplica(ReplicaConfig{
		Source: &FillClient{BaseURL: origin.URL},
		Window: seg.WindowSize(),
	})
	defer rep.Close()
	edge := httptest.NewServer(rep)
	defer edge.Close()

	resp, err := http.Get(edge.URL + "/playlist.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := readPlaylist(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Ended {
		t.Fatal("edge playlist for finished broadcast lacks ENDLIST")
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=86400, immutable" {
		t.Errorf("final playlist Cache-Control = %q", cc)
	}
	for _, s := range pl.Segments {
		r2, err := http.Get(edge.URL + "/" + s.URI)
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("segment %s status %d", s.URI, r2.StatusCode)
		}
		r2.Body.Close()
	}
	// Expired/unknown sequences surface the origin's 404, not a 502.
	r3, err := http.Get(edge.URL + "/" + SegmentName(9999))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("missing segment status = %d, want 404", r3.StatusCode)
	}
}

// feedSegmenterFor pushes a synthetic stream into an existing segmenter
// (like feedSegmenter, but without Finish, so callers control the end).
func feedSegmenterFor(t *testing.T, seg *Segmenter, streamDur time.Duration) {
	t.Helper()
	cfg := media.DefaultEncoderConfig()
	cfg.DropProb = 0
	enc := media.NewEncoder(cfg, time.Unix(1000, 0))
	interval := enc.FrameInterval()
	now := time.Unix(2000, 0)
	for pts := time.Duration(0); pts < streamDur; pts += interval {
		f := enc.NextFrame()
		seg.WriteVideo(now.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs))
	}
}

func readPlaylist(resp *http.Response) (MediaPlaylist, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return MediaPlaylist{}, err
	}
	return ParseMediaPlaylist(buf.Bytes())
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
