package service

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/geo"
	"periscope/internal/hls"
	"periscope/internal/media"
)

// newTestCDN builds a standalone origin tier plus one POP, without the
// rest of the service (no API, ingest, chat) and without topology wiring
// (no shaped links, no peers): the POP fills straight from the origin.
func newTestCDN(t testing.TB) (*Service, *cdnPOP) {
	t.Helper()
	origin, err := newOriginTier()
	if err != nil {
		t.Fatal(err)
	}
	svc := &Service{cfg: DefaultConfig(), origin: origin, regions: geo.Regions()}
	svc.originRegion, _ = geo.RegionByName(svc.regions, originRegionName)
	reg, _ := geo.RegionByName(svc.regions, "us-west")
	pop, err := newCDNPOP(svc, 0, reg)
	if err != nil {
		origin.close()
		t.Fatal(err)
	}
	svc.cdn = []*cdnPOP{pop}
	t.Cleanup(func() {
		pop.close()
		origin.close()
	})
	return svc, pop
}

// buildSegments renders a synthetic stream into a fresh segmenter.
func buildSegments(streamDur, target time.Duration, bitrate int, finish bool) *hls.Segmenter {
	seg := hls.NewSegmenter(target, hls.DefaultWindowSize)
	cfg := media.DefaultEncoderConfig()
	cfg.DropProb = 0
	if bitrate > 0 {
		cfg.TargetBitrate = bitrate
	}
	enc := media.NewEncoder(cfg, time.Unix(1000, 0))
	interval := enc.FrameInterval()
	now := time.Unix(2000, 0)
	for pts := time.Duration(0); pts < streamDur; pts += interval {
		f := enc.NextFrame()
		seg.WriteVideo(now.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs))
	}
	if finish {
		seg.Finish(now.Add(streamDur))
	}
	return seg
}

// TestPOPSingleFlightFanIn pins the tentpole's core property: N viewers
// fanning in on one POP for the same segment produce exactly one
// origin fill per segment.
func TestPOPSingleFlightFanIn(t *testing.T) {
	svc, pop := newTestCDN(t)
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	pop.register("cast", seg)

	pl := seg.Playlist()
	if len(pl.Segments) == 0 {
		t.Fatal("no segments produced")
	}
	const viewers = 100
	for _, s := range pl.Segments {
		var wg sync.WaitGroup
		for i := 0; i < viewers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, "/hls/cast/"+s.URI, nil)
				pop.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("segment %s status %d", s.URI, rec.Code)
				}
			}()
		}
		wg.Wait()
	}
	if got, want := svc.origin.SegmentRequests.Load(), int64(len(pl.Segments)); got != want {
		t.Fatalf("origin saw %d segment fetches for %d segments × %d viewers, want %d",
			got, len(pl.Segments), viewers, want)
	}
	st := pop.stats()
	if st.Fills != int64(len(pl.Segments)) {
		t.Errorf("POP fills = %d, want %d", st.Fills, len(pl.Segments))
	}
	if st.SingleFlightHits == 0 {
		t.Error("no single-flight hits recorded under 100-way fan-in")
	}
	if st.FillBytes == 0 {
		t.Error("fill bytes not accounted")
	}
}

// liveStream feeds a segmenter synthetic frames, one whole segment per cut,
// for tests that need the origin to cut while they watch.
type liveStream struct {
	seg *hls.Segmenter
	pts time.Duration
}

var liveNAL = []byte{0, 0, 0, 1, 0x65, 0x88, 0x84}

func newLiveStream(target time.Duration, cuts int) *liveStream {
	l := &liveStream{seg: hls.NewSegmenter(target, hls.DefaultWindowSize)}
	l.seg.WriteVideo(time.Now(), 0, 0, true, liveNAL)
	for i := 0; i < cuts; i++ {
		l.cut()
	}
	return l
}

// cut completes the segment under way: one frame that brings it to the
// target duration, and the keyframe that cuts it off.
func (l *liveStream) cut() {
	l.pts += l.seg.Target()
	l.seg.WriteVideo(time.Now(), l.pts, l.pts, false, liveNAL)
	l.pts += 40 * time.Millisecond
	l.seg.WriteVideo(time.Now(), l.pts, l.pts, true, liveNAL)
}

// TestPOPPlaylistServedFromEdgeCache verifies the held-request protocol at
// the service layer: however often viewers poll, the origin answers one
// playlist request per cut per polled replica — and the cut reaches the
// edge, prefetched, without a poll.
func TestPOPPlaylistServedFromEdgeCache(t *testing.T) {
	svc, pop := newTestCDN(t)
	live := newLiveStream(800*time.Millisecond, 2)
	svc.origin.register("cast", live.seg)
	pop.register("cast", live.seg)

	poll := func() hls.MediaPlaylist {
		rec := httptest.NewRecorder()
		pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/cast/playlist.m3u8", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("playlist status %d", rec.Code)
		}
		pl, err := hls.ParseMediaPlaylist(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	held := func() int64 { return svc.Snapshot().Origin.HeldPlaylists }

	// The first poll starts the watch: one plain request answered, the
	// next one held until the cut.
	for i := 0; i < 20; i++ {
		poll()
	}
	waitFor(t, func() bool { return held() == 1 }, "the watch's held request")
	if got := svc.origin.PlaylistRequests.Load(); got != 1 {
		t.Fatalf("origin answered %d playlist requests for 20 edge polls, want 1", got)
	}

	live.cut()
	waitFor(t, func() bool { _, ok := pop.replica("cast").CachedSegment(2); return ok }, "the cut segment prefetched without a poll")
	for i := 0; i < 20; i++ {
		if pl := poll(); len(pl.Segments) != 3 || pl.Segments[2].Sequence != 2 {
			t.Fatalf("poll after the cut lists %+v, want segment 2 last", pl.Segments)
		}
	}
	waitFor(t, func() bool { return held() == 1 }, "the next held request")
	live.cut()
	// The origin counts an answer before writing it; the edge once it has read it.
	waitFor(t, func() bool {
		return svc.origin.PlaylistRequests.Load() == 3 && pop.stats().PlaylistRefreshes >= 3
	}, "the second cut's answer, sent and received")
	// Between the two cuts: 20 polls, one origin request.
	if st := pop.stats(); st.StaleServes != 0 || st.PlaylistRefreshes != 3 {
		t.Errorf("%d stale serves, %d playlist fetches; want 0 and 3 (the first poll's, then one per cut)",
			st.StaleServes, st.PlaylistRefreshes)
	}
}

// hangingTransport holds every segment request of the named broadcasts
// until release closes or the request is cancelled, counting the requests
// it holds; everything else passes straight through.
type hangingTransport struct {
	*http.Transport
	ids     []string
	held    *atomic.Int64
	release chan struct{}
}

func (h hangingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	for _, id := range h.ids {
		if strings.HasPrefix(req.URL.Path, "/hls/"+id+"/") && strings.HasSuffix(req.URL.Path, ".ts") {
			h.held.Add(1)
			select {
			case <-h.release:
			case <-req.Context().Done():
				return nil, req.Context().Err()
			}
		}
	}
	return h.Transport.RoundTrip(req)
}

// TestPOPPrefetchIsolatedFromHungBroadcasts: each broadcast prefetches on
// its own fill cap, so two broadcasts whose origin hangs — each listing at
// least as many segments as its cap — hold up no other broadcast's
// prefetches on the same POP.
func TestPOPPrefetchIsolatedFromHungBroadcasts(t *testing.T) {
	svc, pop := newTestCDN(t)
	var held atomic.Int64
	release := make(chan struct{})
	pop.originHTTP = &http.Client{Transport: hangingTransport{
		Transport: &http.Transport{},
		ids:       []string{"hung-a", "hung-b"},
		held:      &held,
		release:   release,
	}}
	t.Cleanup(func() { close(release) }) // before the POP closes
	segs := map[string]*hls.Segmenter{}
	for _, id := range []string{"hung-a", "hung-b", "third"} {
		segs[id] = buildSegments(6*time.Second, 800*time.Millisecond, 0, false)
		if n := len(segs[id].Playlist().Segments); n < hls.DefaultFillConcurrency {
			t.Fatalf("%s lists %d segments, want at least %d", id, n, hls.DefaultFillConcurrency)
		}
		svc.origin.register(id, segs[id])
		pop.register(id, segs[id])
	}

	pop.warm("hung-a")
	pop.warm("hung-b")
	waitFor(t, func() bool { return held.Load() == 2*hls.DefaultFillConcurrency }, "the hung broadcasts' prefetches parked at the origin")

	start := time.Now()
	pop.warm("third")
	rep := pop.replica("third")
	cached := func() bool {
		for _, s := range segs["third"].Playlist().Segments {
			if _, ok := rep.CachedSegment(s.Sequence); !ok {
				return false
			}
		}
		return true
	}
	for !cached() {
		if time.Since(start) > time.Second {
			t.Fatalf("third broadcast's listed segments not cached %v after its warm-up", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHoldIsBounded covers the ways a held request ends other than the
// cut it waits for, and who may ask for one: only a tier talking to the
// origin — a POP ignores the query on both of its routes.
func TestHoldIsBounded(t *testing.T) {
	svc, pop := newTestCDN(t)
	live := newLiveStream(time.Hour, 2) // newest sequence 1, and no cut is coming
	svc.origin.register("cast", live.seg)
	pop.register("cast", live.seg)
	held := func() int64 { return svc.Snapshot().Origin.HeldPlaylists }
	originURL := svc.origin.baseURL() + "/hls/cast/playlist.m3u8"

	// A POP answers at once whatever the query says, and asks the origin
	// for nothing on the viewer's behalf but its own plain first round.
	start := time.Now()
	for _, url := range []string{
		pop.baseURL() + "/hls/cast/playlist.m3u8?after=999999",
		pop.baseURL() + "/hls/cast/playlist.m3u8?after=zz",
	} {
		resp, _ := httpGet(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", url, resp.StatusCode)
		}
	}
	resp, _ := httpGet(t, pop.baseURL()+"/peer/cast/playlist.m3u8?after=999999")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("peer route playlist: status %d, want 400", resp.StatusCode)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a POP held a viewer's ?after= request: three GETs took %v", took)
	}
	// The replica is polled now, so its own watch holds one request.
	waitFor(t, func() bool { return held() == 1 }, "the replica's own held request")

	// At the origin a malformed after is a 400 that counts as neither kind;
	// one the origin already satisfies is answered at once.
	pls := svc.origin.PlaylistRequests.Load()
	for _, q := range []string{"?after=", "?after=-1", "?after=07", "?after=1x", "?x=1&after=%31"} {
		if resp, _ := httpGet(t, originURL+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("origin GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if got := svc.origin.PlaylistRequests.Load(); got != pls {
		t.Errorf("malformed after counted as %d playlist requests", got-pls)
	}
	if resp, _ := httpGet(t, originURL+"?after=0"); resp.StatusCode != http.StatusOK {
		t.Errorf("origin GET ?after=0 with segment 1 listed: status %d", resp.StatusCode)
	}

	// A raw client that asks for a hold and hangs up releases it at once,
	// not at the hold cap.
	conn, err := net.Dial("tcp", svc.origin.addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /hls/cast/playlist.m3u8?after=1 HTTP/1.1\r\nHost: origin\r\n\r\n")
	waitFor(t, func() bool { return held() == 2 }, "the raw client's held request")
	conn.Close()
	waitFor(t, func() bool { return held() == 1 }, "the hold released by the disconnect")

	// Shutdown ends the holds outstanding: the drain does not sit them out.
	var clients sync.WaitGroup
	for i := 0; i < 32; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			if resp, err := http.Get(originURL + "?after=1"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool { return held() == 33 }, "32 more held requests")
	start = time.Now()
	pop.close()
	svc.origin.close()
	if took := time.Since(start); took > cdnDrainTimeout/2 {
		t.Errorf("closing the tiers with 33 holds outstanding took %v", took)
	}
	clients.Wait()
	if got := held(); got != 0 {
		t.Errorf("%d requests still held after shutdown", got)
	}
}

// TestEndBroadcastUnregistersOrigins is the leak regression: ending a
// broadcast must remove its origin and every POP replica (no linger).
func TestEndBroadcastUnregistersOrigins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNUnregisterLinger = 0
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	h := svc.hubFor(b.ID)
	if h == nil || !svc.origin.has(b.ID) {
		t.Fatal("broadcast not registered at origin tier after AccessVideo")
	}
	for _, pop := range svc.cdn {
		if !pop.has(b.ID) {
			t.Fatal("broadcast not registered at POP after AccessVideo")
		}
	}
	seg := h.Segmenter()

	svc.EndBroadcast(b.ID)

	if svc.hubFor(b.ID) != nil {
		t.Error("hub still routed after EndBroadcast")
	}
	if !seg.Ended() {
		t.Error("segmenter not finished on broadcast end")
	}
	if svc.origin.has(b.ID) {
		t.Error("origin tier still holds the ended broadcast")
	}
	for i, pop := range svc.cdn {
		if pop.has(b.ID) {
			t.Errorf("POP %d still holds the ended broadcast's replica", i)
		}
	}
	if svc.origin.count() != 0 {
		t.Errorf("origin tier count = %d after end, want 0", svc.origin.count())
	}
}

// TestEndBroadcastLingerSparesRelaunchedBroadcast covers the
// re-registration race: a broadcast accessed again during the unregister
// linger re-registers a fresh segmenter, which must replace the ended
// mounts — and the stale linger timer must not tear the live mounts down.
func TestEndBroadcastLingerSparesRelaunchedBroadcast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNUnregisterLinger = 200 * time.Millisecond
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	oldSeg := svc.hubFor(b.ID).Segmenter()
	svc.EndBroadcast(b.ID)

	// The broadcast is still live in the population; the next access
	// relaunches the pipeline with a fresh segmenter during the linger.
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	newSeg := svc.hubFor(b.ID).Segmenter()
	if newSeg == nil || newSeg == oldSeg {
		t.Fatalf("relaunch did not build a fresh segmenter (old=%p new=%p)", oldSeg, newSeg)
	}

	// After the linger timer fires, the relaunched broadcast must still be
	// registered everywhere and serve a live (non-ended) playlist.
	time.Sleep(400 * time.Millisecond)
	if !svc.origin.has(b.ID) {
		t.Fatal("linger timer unregistered the relaunched broadcast from origin")
	}
	for i, pop := range svc.cdn {
		if !pop.has(b.ID) {
			t.Fatalf("linger timer unregistered the relaunched broadcast from POP %d", i)
		}
	}
	pop := svc.cdn[svc.PreferredPOPIndex(b.ID)]
	rec := httptest.NewRecorder()
	pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/"+b.ID+"/playlist.m3u8", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("playlist status %d after relaunch", rec.Code)
	}
	pl, err := hls.ParseMediaPlaylist(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Ended {
		t.Fatal("relaunched broadcast serves the ended predecessor's playlist")
	}
	if n := timersPending(svc); n != 0 {
		t.Errorf("%d fired linger timers still tracked, want 0", n)
	}
}

// timersPending counts tracked end-linger timers (fired ones must have
// removed themselves).
func timersPending(s *Service) int {
	s.timerMu.Lock()
	defer s.timerMu.Unlock()
	return len(s.endTimers)
}

// TestEndBroadcastServesFinalPlaylistDuringLinger verifies the viewer-side
// ENDLIST semantics: with a linger configured, a viewer polling the POP
// after the broadcast ends receives the final playlist instead of
// spinning (or 404ing) forever.
func TestEndBroadcastServesFinalPlaylistDuringLinger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNUnregisterLinger = time.Minute // longer than the test
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one segment land, and warm the edge playlist cache.
	h := svc.hubFor(b.ID)
	waitFor(t, func() bool { return h.Segmenter().SegmentCount() >= 1 }, "first segment")
	warm, err := http.Get(acc.HLSBaseURL + "/playlist.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	// Drain and close, or the keep-alive conn never goes idle and its
	// transport goroutines outlive the test binary (leakcheck).
	if _, err := io.Copy(io.Discard, warm.Body); err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()

	svc.EndBroadcast(b.ID)

	// The edge revalidates past its TTL and picks up the final playlist.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(acc.HLSBaseURL + "/playlist.m3u8")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("playlist status %d during linger", resp.StatusCode)
		}
		pl, err := hls.ParseMediaPlaylist(body)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Ended {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("edge playlist never went final after EndBroadcast")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestPOPShutdownDrainsInflight covers the teardown regression: closing a
// POP must not hard-drop an in-flight segment response mid-body. A slow
// reader keeps a large response in flight while close() runs; with
// graceful Shutdown the body completes.
func TestPOPShutdownDrainsInflight(t *testing.T) {
	svc, pop := newTestCDN(t)
	// One very large segment (tens of MB) so the response cannot hide in
	// loopback socket buffers: the handler is still writing when close()
	// runs, and only a graceful drain lets it finish.
	seg := buildSegments(4*time.Minute, time.Hour, 2_000_000, true)
	s0, ok := seg.Segment(0)
	if !ok || len(s0.Data) < 16*1024*1024 {
		t.Fatalf("test segment too small (%d bytes)", len(s0.Data))
	}
	svc.origin.register("big", seg)
	pop.register("big", seg)

	resp, err := http.Get(pop.baseURL() + "/hls/big/" + hls.SegmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read a little, then start the POP teardown while the rest of the
	// body is still streaming.
	buf := make([]byte, 32*1024)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		pop.close()
		close(closed)
	}()
	// Keep reading slowly, then drain the rest. The trickle stays short:
	// the drain deadline (cdnDrainTimeout) must comfortably cover both it
	// and the tens-of-MB remainder even on a loaded -race runner, or the
	// graceful Shutdown legitimately cuts the body we're asserting on.
	total := len(buf)
	for i := 0; i < 6; i++ {
		time.Sleep(10 * time.Millisecond)
		n, err := resp.Body.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("response truncated after %d of %d bytes: %v", total, len(s0.Data), err)
		}
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("response truncated after %d of %d bytes: %v", total+len(rest), len(s0.Data), err)
	}
	total += len(rest)
	if total != len(s0.Data) {
		t.Fatalf("read %d bytes, want %d", total, len(s0.Data))
	}
	<-closed
}

// TestSnapshotSurfacesFillAndDeliveryMetrics exercises Service.Snapshot
// end to end: CDN fill counters and shard-level delivery counters appear.
func TestSnapshotSurfacesFillAndDeliveryMetrics(t *testing.T) {
	svc, pop := newTestCDN(t)
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	pop.register("cast", seg)

	rec := httptest.NewRecorder()
	pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/cast/playlist.m3u8", nil))
	pl := seg.Playlist()
	rec = httptest.NewRecorder()
	pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/cast/"+pl.Segments[0].URI, nil))

	// Seed the service-owned block every hub counts into.
	svc.delivery.drops.Add(7)
	svc.delivery.resyncs.Add(3)
	svc.delivery.hopeless.Add(1)

	snap := svc.Snapshot()
	if snap.Origin.Broadcasts != 1 || snap.Origin.SegmentRequests == 0 {
		t.Errorf("origin snapshot = %+v", snap.Origin)
	}
	if len(snap.POPs) != 1 {
		t.Fatalf("POP snapshots = %d, want 1", len(snap.POPs))
	}
	ps := snap.POPs[0]
	if ps.Fills == 0 || ps.FillBytes == 0 || ps.PlaylistRefreshes == 0 || ps.CachedSegments == 0 {
		t.Errorf("POP snapshot missing fill metrics: %+v", ps)
	}
	if ps.Requests != 2 {
		t.Errorf("POP requests = %d, want 2", ps.Requests)
	}
	if ps.Region != "us-west" {
		t.Errorf("POP region = %q, want us-west", ps.Region)
	}
	d := snap.Delivery
	if d.Drops != 7 || d.Resyncs != 3 || d.HopelessDisconnects != 1 {
		t.Errorf("delivery snapshot = %+v", d)
	}
}

// discardResponseWriter is a minimal ResponseWriter for benchmarks: it
// throws the body away without the buffering a Recorder would do.
type discardResponseWriter struct {
	h    http.Header
	code int
	n    int64
}

func (w *discardResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *discardResponseWriter) WriteHeader(code int) { w.code = code }

func (w *discardResponseWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// BenchmarkPOPFill measures the fan-in path of the replicated CDN: V
// concurrent viewers request the same (cold) segment from one POP, which
// fills it from origin exactly once over HTTP and serves the rest from
// cache. Per iteration the replica is re-registered cold, so every op
// contains one origin fill plus V-1 coalesced/cached serves.
func BenchmarkPOPFill(b *testing.B) {
	for _, viewers := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("viewers=%d", viewers), func(b *testing.B) {
			svc, pop := newTestCDN(b)
			seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
			svc.origin.register("bench", seg)
			pl := seg.Playlist()
			uri := "/hls/bench/" + pl.Segments[0].URI
			segBytes := 0
			if s, ok := seg.Segment(pl.Segments[0].Sequence); ok {
				segBytes = len(s.Data)
			}

			before := svc.origin.SegmentRequests.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop.unregister("bench", nil)
				pop.register("bench", seg)
				var wg sync.WaitGroup
				for v := 0; v < viewers; v++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := &discardResponseWriter{}
						pop.ServeHTTP(w, httptest.NewRequest(http.MethodGet, uri, nil))
						if w.n == 0 {
							b.Error("empty segment response")
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			fills := svc.origin.SegmentRequests.Load() - before
			b.ReportMetric(float64(fills)/float64(b.N), "origin-fills/op")
			b.SetBytes(int64(segBytes * viewers))
		})
	}
}

// httpGet fetches url and returns the response (body drained and closed)
// with the body bytes.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHLSResponsesAreLengthFramed is the wire-level framing test: what
// crosses every HLS hop is a complete object with a known length, so a
// segment and a playlist — through a POP and straight from the origin —
// carry Content-Length and no transfer encoding; a final playlist stays
// immutable, and an error keeps its status.
func TestHLSResponsesAreLengthFramed(t *testing.T) {
	svc, pop := newTestCDN(t)
	live := buildSegments(4*time.Second, 800*time.Millisecond, 0, false)
	done := buildSegments(4*time.Second, 800*time.Millisecond, 0, true)
	for id, seg := range map[string]*hls.Segmenter{"live": live, "done": done} {
		svc.origin.register(id, seg)
		pop.register(id, seg)
	}
	segURI := live.Playlist().Segments[0].URI

	for _, tier := range []struct{ name, base string }{
		{"POP", pop.baseURL()},
		{"origin", svc.origin.baseURL()},
	} {
		for _, tc := range []struct{ path, ctype, cache string }{
			{"/hls/live/" + segURI, "video/MP2T", "max-age=3600"},
			{"/hls/live/playlist.m3u8", "application/vnd.apple.mpegurl", "max-age=1"},
			{"/hls/done/playlist.m3u8", "application/vnd.apple.mpegurl", "max-age=86400, immutable"},
		} {
			resp, body := httpGet(t, tier.base+tc.path)
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Fatalf("%s %s: status %d, %d bytes", tier.name, tc.path, resp.StatusCode, len(body))
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
					tier.name, tc.path, resp.ContentLength, resp.TransferEncoding, len(body))
			}
			if got := resp.Header.Get("Content-Type"); got != tc.ctype {
				t.Errorf("%s %s: Content-Type %q, want %q", tier.name, tc.path, got, tc.ctype)
			}
			if got := resp.Header.Get("Cache-Control"); got != tc.cache {
				t.Errorf("%s %s: Cache-Control %q, want %q", tier.name, tc.path, got, tc.cache)
			}
		}
		for path, want := range map[string]int{
			"/hls/live/seg999999.ts": http.StatusNotFound,
			"/hls/live/seg-1.ts":     http.StatusBadRequest,
			"/hls/live/favicon.ico":  http.StatusNotFound,
		} {
			if resp, _ := httpGet(t, tier.base+path); resp.StatusCode != want {
				t.Errorf("%s %s: status %d, want %d", tier.name, path, resp.StatusCode, want)
			}
		}
	}
}

// TestOriginCountsOnlyWellFormedRequests: the origin's per-kind counters
// follow the renderer's classification — a stranger's file name or an
// unknown broadcast is answered and counted as neither, so
// SegmentRequests stays "one per segment fill".
func TestOriginCountsOnlyWellFormedRequests(t *testing.T) {
	svc, _ := newTestCDN(t)
	seg := buildSegments(4*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	o := svc.origin

	for _, tc := range []struct {
		path                string
		status              int
		playlists, segments int64
	}{
		{"/hls/cast/playlist.m3u8", http.StatusOK, 1, 0},
		{"/hls/cast/" + seg.Playlist().Segments[0].URI, http.StatusOK, 0, 1},
		{"/hls/cast/seg999999.ts", http.StatusNotFound, 0, 1}, // well-formed, expired
		{"/hls/cast/seg-00001.ts", http.StatusBadRequest, 0, 0},
		{"/hls/cast/favicon.ico", http.StatusNotFound, 0, 0},
		{"/hls/nobody/playlist.m3u8", http.StatusNotFound, 0, 0},
		{"/hls/nobody/seg000001.ts", http.StatusNotFound, 0, 0},
	} {
		reqs, pls, segs := o.Requests.Load(), o.PlaylistRequests.Load(), o.SegmentRequests.Load()
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, rec.Code, tc.status)
		}
		if got := o.Requests.Load() - reqs; got != 1 {
			t.Errorf("%s: Requests moved by %d, want 1", tc.path, got)
		}
		if dp, ds := o.PlaylistRequests.Load()-pls, o.SegmentRequests.Load()-segs; dp != tc.playlists || ds != tc.segments {
			t.Errorf("%s: counted %d playlist / %d segment requests, want %d / %d", tc.path, dp, ds, tc.playlists, tc.segments)
		}
	}
}

// TestTierBytesAreConserved: every tier's byte counter equals the sum of
// the 200 bodies its clients read — viewers at a POP, a peer POP on the
// /peer/ mount, the POPs' fill clients at the origin.
func TestTierBytesAreConserved(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west")
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	for _, pop := range pops {
		pop.register("cast", seg)
	}
	segs := seg.Playlist().Segments

	// Viewers at POP 0: the playlist and every segment, twice over, plus a
	// miss whose error body counts for nothing.
	var viewer0 int64
	for round := 0; round < 2; round++ {
		_, body := httpGet(t, pops[0].baseURL()+"/hls/cast/playlist.m3u8")
		viewer0 += int64(len(body))
		for _, s := range segs {
			_, body := httpGet(t, pops[0].baseURL()+"/hls/cast/"+s.URI)
			viewer0 += int64(len(body))
		}
	}
	if resp, _ := httpGet(t, pops[0].baseURL()+"/hls/cast/seg999999.ts"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status %d", resp.StatusCode)
	}
	if got := pops[0].stats().Bytes; got != viewer0 {
		t.Errorf("POP 0 Bytes = %d, viewers read %d", got, viewer0)
	}

	// A raw peer probe, then a viewer at POP 1 whose fill probes POP 0.
	_, probe := httpGet(t, pops[0].baseURL()+"/peer/cast/"+segs[0].URI)
	_, viewer1 := httpGet(t, pops[1].baseURL()+"/hls/cast/"+segs[1].URI)
	st0, st1 := pops[0].stats(), pops[1].stats()
	if st1.Bytes != int64(len(viewer1)) {
		t.Errorf("POP 1 Bytes = %d, its viewer read %d", st1.Bytes, len(viewer1))
	}
	if want := int64(len(probe)) + st1.PeerFillBytes; st0.PeerBytesOut != want || st1.PeerFillBytes != int64(len(viewer1)) {
		t.Errorf("POP 0 PeerBytesOut = %d, want %d (probe %d + POP 1 peer fills %d)",
			st0.PeerBytesOut, want, len(probe), st1.PeerFillBytes)
	}

	// The origin's clients are the POPs' fill paths (POP 0's demand fills
	// and the prefetch its cold playlist fetch triggered); wait those out.
	fromOrigin := func() int64 {
		var n int64
		for _, pop := range pops {
			st := pop.stats()
			n += st.PlaylistBytes + st.FillBytes - st.PeerFillBytes
		}
		return n
	}
	waitFor(t, func() bool {
		return pops[0].stats().CachedSegments == len(segs) && svc.origin.Bytes.Load() == fromOrigin()
	}, "origin bytes to match what the POPs filled")
	if svc.origin.Bytes.Load() == 0 {
		t.Error("origin served no bytes")
	}
}
