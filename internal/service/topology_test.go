package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"periscope/internal/geo"
	"periscope/internal/hls"
)

// newTestTopology builds an origin tier plus POPs placed in the given
// regions, with the fill topology wired (nearest-peer candidate lists)
// but modelled link latency disabled so tests measure structure, not
// sleeps.
func newTestTopology(t testing.TB, popRegions ...string) (*Service, []*cdnPOP) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CDNPOPRegions = popRegions
	cfg.CDNLinkRTTScale = -1
	origin, err := newOriginTier()
	if err != nil {
		t.Fatal(err)
	}
	svc := &Service{cfg: cfg, origin: origin, regions: geo.Regions()}
	svc.originRegion, _ = geo.RegionByName(svc.regions, originRegionName)
	regions, err := resolvePOPRegions(cfg, svc.regions)
	if err != nil {
		origin.close()
		t.Fatal(err)
	}
	for i, reg := range regions {
		pop, err := newCDNPOP(svc, i, reg)
		if err != nil {
			t.Fatal(err)
		}
		svc.cdn = append(svc.cdn, pop)
	}
	svc.wireCDNTopology()
	t.Cleanup(func() {
		for _, pop := range svc.cdn {
			pop.close()
		}
		origin.close()
	})
	return svc, svc.cdn
}

// TestCDNTopologyPeerSelection pins the hierarchy: peer candidates are
// exactly the POPs strictly nearer than the origin, nearest first — two
// same-region POPs form a cluster, transatlantic POPs do not qualify when
// the origin is closer.
func TestCDNTopologyPeerSelection(t *testing.T) {
	// Origin is us-east: the us-west POPs are ~2300 km from it, the
	// eu-west POPs ~7400 km; cross-ocean peers (>8000 km) are farther
	// than each side's origin path, so clusters are per region.
	_, pops := newTestTopology(t, "us-west", "us-west", "eu-west", "eu-west")
	wantPeers := map[int][]int{0: {1}, 1: {0}, 2: {3}, 3: {2}}
	for i, pop := range pops {
		var got []int
		for _, pr := range pop.peers {
			got = append(got, pr.pop.index)
		}
		want := wantPeers[i]
		if len(got) != len(want) {
			t.Errorf("POP %d (%s) peers = %v, want %v", i, pop.region.Name, got, want)
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("POP %d peers = %v, want %v", i, got, want)
			}
		}
	}
}

// TestCDNTopologyNearerForeignPeerQualifies: the candidate rule is
// "strictly nearer than the origin", not "same region" — an eu-east POP
// prefers an eu-west peer over the us-east origin.
func TestCDNTopologyNearerForeignPeerQualifies(t *testing.T) {
	_, pops := newTestTopology(t, "eu-east", "eu-west")
	if len(pops[0].peers) != 1 || pops[0].peers[0].pop.index != 1 {
		t.Errorf("eu-east POP peers = %+v, want the eu-west POP", pops[0].peers)
	}
}

// TestCDNTopologyLinkRTTs checks the modelled latency at default scale:
// every link RTT is positive, and a same-region peer is nearer than the
// transatlantic origin path.
func TestCDNTopologyLinkRTTs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CDNPOPRegions = []string{"eu-west", "eu-west"}
	origin, err := newOriginTier()
	if err != nil {
		t.Fatal(err)
	}
	defer origin.close()
	svc := &Service{cfg: cfg, origin: origin, regions: geo.Regions()}
	svc.originRegion, _ = geo.RegionByName(svc.regions, originRegionName)
	regions, _ := resolvePOPRegions(cfg, svc.regions)
	for i, reg := range regions {
		pop, err := newCDNPOP(svc, i, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer pop.close()
		svc.cdn = append(svc.cdn, pop)
	}
	svc.wireCDNTopology()
	p := svc.cdn[0]
	if p.originLink.RTT <= 0 {
		t.Error("origin link has no modelled RTT at default scale")
	}
	if len(p.peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(p.peers))
	}
	if got, origin := p.peers[0].link.RTT, p.originLink.RTT; got <= 0 || got >= origin {
		t.Errorf("peer RTT %v not in (0, origin %v)", got, origin)
	}
}

func fetchSegment(t testing.TB, pop *cdnPOP, id, uri string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/"+id+"/"+uri, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POP %d segment %s status %d", pop.index, uri, rec.Code)
	}
	return rec.Body.Bytes()
}

// TestPeerFillHierarchy is the tentpole acceptance test: with two POPs in
// each of two regions, a cold segment reaches the origin at most once per
// region — the second POP of a cluster fills from its warm peer — and the
// snapshot surfaces the peer-fill split.
func TestPeerFillHierarchy(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west", "eu-west", "eu-west")
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	for _, pop := range pops {
		pop.register("cast", seg)
	}
	pl := seg.Playlist()
	if len(pl.Segments) < 2 {
		t.Fatal("need at least 2 segments")
	}

	const regionCount = 2
	for _, s := range pl.Segments {
		before := svc.origin.SegmentRequests.Load()
		want := fetchSegment(t, pops[0], "cast", s.URI) // cluster 1: origin fill
		for _, pop := range pops[1:] {
			got := fetchSegment(t, pop, "cast", s.URI)
			if string(got) != string(want) {
				t.Fatalf("POP %d served different bytes for %s", pop.index, s.URI)
			}
		}
		originFills := svc.origin.SegmentRequests.Load() - before
		if originFills > regionCount {
			t.Errorf("segment %s: %d origin fills across 4 POPs, want <= %d (one per region)",
				s.URI, originFills, regionCount)
		}
		if originFills < 1 {
			t.Errorf("segment %s: no origin fill at all", s.URI)
		}
	}

	n := int64(len(pl.Segments))
	// Cluster followers filled from their warm peers.
	for _, i := range []int{1, 3} {
		st := pops[i].stats()
		if st.PeerFills != n {
			t.Errorf("POP %d peer fills = %d, want %d", i, st.PeerFills, n)
		}
		if st.OriginFills != 0 {
			t.Errorf("POP %d went to origin %d times despite a warm peer", i, st.OriginFills)
		}
		if st.PeerFillBytes == 0 {
			t.Errorf("POP %d peer fill bytes not accounted", i)
		}
	}
	// Cluster anchors served their peers and count the probes.
	for _, i := range []int{0, 2} {
		st := pops[i].stats()
		if st.PeerServes != n {
			t.Errorf("POP %d peer serves = %d, want %d", i, st.PeerServes, n)
		}
		if st.OriginFills != n {
			t.Errorf("POP %d origin fills = %d, want %d", i, st.OriginFills, n)
		}
	}
	// The service snapshot carries the topology and the peer-fill split.
	snap := svc.Snapshot()
	if snap.Origin.Region != "us-east" {
		t.Errorf("origin region = %q", snap.Origin.Region)
	}
	var peerFills int64
	for _, ps := range snap.POPs {
		if ps.Region == "" {
			t.Errorf("POP %d snapshot lacks a region", ps.Index)
		}
		peerFills += ps.PeerFills
	}
	if peerFills != 2*n {
		t.Errorf("snapshot peer fills = %d, want %d", peerFills, 2*n)
	}
}

// TestPeerFillSingleFlight: single-flight is preserved across the peer
// hop — N viewers fanning in at a cold POP produce exactly one probe to
// the warm peer and none to the origin. The cold POP's one peer link
// models a 250 ms RTT, so the probe outlasts the fan-in and the viewers
// after the first coalesce onto it rather than find the segment landed.
func TestPeerFillSingleFlight(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west")
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	for _, pop := range pops {
		pop.register("cast", seg)
	}
	pl := seg.Playlist()
	uri := pl.Segments[0].URI
	fetchSegment(t, pops[0], "cast", uri) // warm the anchor from origin
	originBefore := svc.origin.SegmentRequests.Load()
	if len(pops[1].peers) != 1 {
		t.Fatalf("cold POP has %d peers, want the warm one", len(pops[1].peers))
	}
	pops[1].peers[0].link.RTT = 250 * time.Millisecond

	const viewers = 50
	var wg sync.WaitGroup
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetchSegment(t, pops[1], "cast", uri)
		}()
	}
	wg.Wait()

	if got := pops[0].PeerServes.Load(); got != 1 {
		t.Errorf("peer saw %d probes for %d fanned-in viewers, want 1", got, viewers)
	}
	if got := svc.origin.SegmentRequests.Load() - originBefore; got != 0 {
		t.Errorf("origin saw %d fetches although the peer held the segment", got)
	}
	st := pops[1].stats()
	if st.PeerFills != 1 || st.SingleFlightHits == 0 {
		t.Errorf("cold POP stats = peerFills %d singleFlightHits %d", st.PeerFills, st.SingleFlightHits)
	}
}

// TestPeerProbeIsCacheOnly: a probe for a segment nobody holds must not
// cascade — the probed peer answers 404 without filling, and the prober
// falls back to the origin exactly once.
func TestPeerProbeIsCacheOnly(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west")
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	for _, pop := range pops {
		pop.register("cast", seg)
	}
	pl := seg.Playlist()
	uri := pl.Segments[0].URI

	fetchSegment(t, pops[1], "cast", uri) // both caches cold
	if got := svc.origin.SegmentRequests.Load(); got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
	st0 := pops[0].stats()
	if st0.Fills != 0 {
		t.Errorf("probed peer performed %d fills; probes must be cache-only", st0.Fills)
	}
	if st0.PeerRequests != 1 || st0.PeerServes != 0 {
		t.Errorf("peer counters = %d requests / %d serves, want 1 / 0", st0.PeerRequests, st0.PeerServes)
	}
	st1 := pops[1].stats()
	if st1.PeerMisses != 1 || st1.OriginFills != 1 {
		t.Errorf("prober counters = %d misses / %d origin fills, want 1 / 1", st1.PeerMisses, st1.OriginFills)
	}
}

// TestPromotionWarmsClusterAnchorsOnly: enableHLS warms one replica per
// cluster (the anchor), not every POP — otherwise the promotion burst
// itself would hit the origin once per POP while every peer cache is
// still cold.
func TestPromotionWarmsClusterAnchorsOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNPOPRegions = []string{"us-west", "us-west", "eu-west", "eu-west"}
	cfg.CDNLinkRTTScale = -1
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	b := pickBroadcast(t, svc, true)
	if _, err := svc.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	// Anchors warm at promotion and re-warm when the first segment lands;
	// followers never warm — their fills probe the warm anchor instead.
	anchors := map[int]bool{0: true, 1: false, 2: true, 3: false}
	for _, ps := range svc.Snapshot().POPs {
		if anchors[ps.Index] && ps.Warmups == 0 {
			t.Errorf("anchor POP %d (%s) never warmed", ps.Index, ps.Region)
		}
		if !anchors[ps.Index] && ps.Warmups != 0 {
			t.Errorf("follower POP %d (%s) warmups = %d, want 0", ps.Index, ps.Region, ps.Warmups)
		}
	}
	// Once the first segment lands, the anchors' re-warm prefetches it:
	// each cluster's anchor holds the window without any viewer touching
	// it, so followers' first fills peer-hit.
	h := svc.hubFor(b.ID)
	waitFor(t, func() bool { return h.Segmenter().SegmentCount() >= 1 }, "first segment")
	for _, i := range []int{0, 2} {
		pop := svc.cdn[i]
		waitFor(t, func() bool {
			rep := pop.replica(b.ID)
			return rep != nil && rep.Stats().CachedSegments >= 1
		}, fmt.Sprintf("anchor POP %d warmed cache", i))
	}
}

// gatedTransport parks every request at a gate: entered gets one token
// per request that arrived, release lets them all through.
type gatedTransport struct {
	http.RoundTripper
	entered chan struct{}
	release chan struct{}
}

func (g gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.RoundTripper.RoundTrip(req)
}

// TestSnapshotFillCountersSurviveUnregister: replicas count into their
// POP's block, so cumulative snapshot metrics never dip as broadcasts
// come and go — and a fill still in flight when its replica is
// unregistered is counted when it lands, not lost with the replica.
func TestSnapshotFillCountersSurviveUnregister(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west")
	seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
	svc.origin.register("cast", seg)
	for _, pop := range pops {
		pop.register("cast", seg)
	}
	pl := seg.Playlist()
	fetchSegment(t, pops[0], "cast", pl.Segments[0].URI) // origin fill at anchor
	fetchSegment(t, pops[1], "cast", pl.Segments[0].URI) // peer fill at follower

	before0, before1 := pops[0].stats(), pops[1].stats()
	if before0.Fills != 1 || before1.PeerFills != 1 {
		t.Fatalf("pre-churn stats: anchor fills %d, follower peer fills %d", before0.Fills, before1.PeerFills)
	}
	for _, pop := range pops {
		pop.unregister("cast", nil)
	}
	after0, after1 := pops[0].stats(), pops[1].stats()
	if after0.Fills != before0.Fills || after0.FillBytes != before0.FillBytes ||
		after0.OriginFills != before0.OriginFills || after0.PeerServes != before0.PeerServes {
		t.Errorf("anchor counters dipped after unregister: before %+v after %+v", before0, after0)
	}
	if after1.PeerFills != before1.PeerFills || after1.PeerFillBytes != before1.PeerFillBytes {
		t.Errorf("follower peer counters dipped after unregister: before %+v after %+v", before1, after1)
	}
	if after0.Broadcasts != 0 || after0.CachedSegments != 0 {
		t.Errorf("gauges should drop with the replica: %+v", after0)
	}

	// Unregister with a fill in flight: hold the anchor's origin fetch at
	// a gate, drop the replica, then let the fetch complete.
	gate := gatedTransport{
		RoundTripper: pops[0].originHTTP.Transport,
		entered:      make(chan struct{}, 1),
		release:      make(chan struct{}),
	}
	t.Cleanup(pops[0].originHTTP.CloseIdleConnections) // the wrapper hides it from pop.close
	pops[0].originHTTP = &http.Client{Transport: gate}
	pops[0].register("cast", seg)
	fetched := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		pops[0].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/cast/"+pl.Segments[1].URI, nil))
		fetched <- rec
	}()
	<-gate.entered
	pops[0].unregister("cast", nil)
	close(gate.release)
	rec := <-fetched
	if rec.Code != http.StatusOK {
		t.Fatalf("segment status %d", rec.Code)
	}
	late := pops[0].stats()
	if late.Fills != after0.Fills+1 || late.FillBytes != after0.FillBytes+int64(rec.Body.Len()) {
		t.Errorf("fill in flight at unregister lost: fills %d → %d, fill bytes %d → %d (segment is %d bytes)",
			after0.Fills, late.Fills, after0.FillBytes, late.FillBytes, rec.Body.Len())
	}
}

// TestSteeringTouchesNoReplica pins the O(1) health check: selectPOP and
// POPHealthStates read each POP's own counter block and sampler, so they
// complete with every POP's replica map write-locked — they cannot be
// taking the POP lock or walking the replicas, however many there are.
func TestSteeringTouchesNoReplica(t *testing.T) {
	svc, pops := newTestTopology(t, "us-west", "us-west", "eu-west")
	seg := buildSegments(2*time.Second, 800*time.Millisecond, 0, true)
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("cast-%d", i)
		pops[0].register(ids[i], seg)
	}
	// Degrade one POP so steering walks a failover order too.
	pops[1].blackhole.Store(true)

	for _, pop := range pops {
		pop.mu.Lock()
	}
	steered := make(chan struct{})
	go func() {
		defer close(steered)
		for _, id := range ids {
			svc.selectPOP(id)
		}
		svc.POPHealthStates()
	}()
	select {
	case <-steered:
	case <-time.After(5 * time.Second):
		t.Error("steering blocked on a POP lock: health() is not O(1)")
	}
	for _, pop := range pops {
		pop.mu.Unlock()
	}
	<-steered
	if got := pops[1].reroutes.Load(); got == 0 {
		t.Error("no viewer was steered off the blackholed POP: the failover walk never ran")
	}
}

// TestScheduledEndChurnsBroadcastEndToEnd drives the full lifecycle from
// the population's fake clock, with no manual EndBroadcast call:
// scheduled end → ENDLIST at every POP → relaunch mid-linger is spared →
// second end → linger → unregistered everywhere.
func TestScheduledEndChurnsBroadcastEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNPOPRegions = []string{"us-west", "us-west", "eu-west", "eu-west"}
	cfg.CDNLinkRTTScale = -1
	// The linger must comfortably outlast the edge playlist TTL
	// (SegmentTarget/2 = 400ms): POPs only learn about the end by
	// revalidating a stale playlist, and that has to happen before the
	// linger unregisters the replicas.
	cfg.CDNUnregisterLinger = 1500 * time.Millisecond
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	b := pickBroadcast(t, svc, true)
	if _, err := svc.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	h := svc.hubFor(b.ID)
	waitFor(t, func() bool { return h.Segmenter().SegmentCount() >= 1 }, "first segment")
	// Warm the edge playlist caches so the POPs have something to go
	// final about.
	for _, pop := range svc.cdn {
		rec := httptest.NewRecorder()
		pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/"+b.ID+"/playlist.m3u8", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("POP %d playlist status %d", pop.index, rec.Code)
		}
	}

	// The population's scheduled end drives the teardown: no manual
	// EndBroadcast anywhere in this test.
	svc.Pop.EndAt(b.ID, svc.Pop.Now().Add(time.Second))
	svc.Pop.Advance(2 * time.Second)

	if svc.hubFor(b.ID) != nil {
		t.Fatal("hub still routed after the scheduled end")
	}
	// Every POP's playlist revalidates to ENDLIST during the linger.
	for _, pop := range svc.cdn {
		pop := pop
		waitFor(t, func() bool {
			rec := httptest.NewRecorder()
			pop.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hls/"+b.ID+"/playlist.m3u8", nil))
			if rec.Code != http.StatusOK {
				return false
			}
			pl, err := hls.ParseMediaPlaylist(rec.Body.Bytes())
			return err == nil && pl.Ended
		}, fmt.Sprintf("ENDLIST at POP %d", pop.index))
	}

	// Relaunch mid-linger: the broadcaster restarts the same stream. The
	// fresh registration must replace the ended mounts, and the stale
	// linger timer must leave it alone.
	if _, ok := svc.Pop.Relaunch(b.ID, 10*time.Minute); !ok {
		t.Fatal("relaunch failed")
	}
	if _, err := svc.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	h2 := svc.hubFor(b.ID)
	if h2 == nil || h2.Segmenter() == nil || h2.Segmenter() == h.Segmenter() {
		t.Fatal("relaunch did not build a fresh pipeline")
	}
	time.Sleep(2 * cfg.CDNUnregisterLinger) // let the first end's timer fire
	if !svc.origin.has(b.ID) {
		t.Fatal("linger timer tore down the relaunched broadcast at origin")
	}
	for _, pop := range svc.cdn {
		if !pop.has(b.ID) {
			t.Fatalf("linger timer tore down the relaunched broadcast at POP %d", pop.index)
		}
	}

	// Second scheduled end: after the linger, the broadcast is gone from
	// the origin tier and every POP.
	svc.Pop.EndAt(b.ID, svc.Pop.Now().Add(time.Second))
	svc.Pop.Advance(2 * time.Second)
	if svc.hubFor(b.ID) != nil {
		t.Fatal("hub still routed after the second scheduled end")
	}
	waitFor(t, func() bool {
		if svc.origin.has(b.ID) {
			return false
		}
		for _, pop := range svc.cdn {
			if pop.has(b.ID) {
				return false
			}
		}
		return true
	}, "unregistration after linger")
}

// TestChurnLoopEndsBroadcasts covers the background churn driver: with
// ChurnInterval set, real time advances the population and scheduled ends
// fire without anyone calling Advance.
func TestChurnLoopEndsBroadcasts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNLinkRTTScale = -1
	cfg.CDNUnregisterLinger = 0
	cfg.ChurnInterval = 50 * time.Millisecond
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	b := pickBroadcast(t, svc, true)
	// Schedule the end before starting the pipeline so the churn loop has
	// an event to find; the margin outlives pipeline startup.
	svc.Pop.EndAt(b.ID, svc.Pop.Now().Add(3*time.Second))
	if _, err := svc.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	if svc.hubFor(b.ID) == nil {
		t.Fatal("no hub after AccessVideo")
	}
	deadline := time.Now().Add(15 * time.Second)
	for svc.hubFor(b.ID) != nil || svc.origin.has(b.ID) {
		if time.Now().After(deadline) {
			t.Fatal("churn loop never ended the broadcast")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// BenchmarkPeerFill measures the intra-cluster fill path next to
// BenchmarkPOPFill's origin path: V viewers fan in on a cold POP whose
// same-region peer already holds the segment, so every op is one peer
// fill (zero origin egress) plus V-1 coalesced/cached serves.
func BenchmarkPeerFill(b *testing.B) {
	for _, viewers := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("viewers=%d", viewers), func(b *testing.B) {
			svc, pops := newTestTopology(b, "us-west", "us-west")
			seg := buildSegments(6*time.Second, 800*time.Millisecond, 0, true)
			svc.origin.register("bench", seg)
			pops[0].register("bench", seg)
			pl := seg.Playlist()
			uri := "/hls/bench/" + pl.Segments[0].URI
			segBytes := 0
			if s, ok := seg.Segment(pl.Segments[0].Sequence); ok {
				segBytes = len(s.Data)
			}
			// Warm the anchor; after this the origin must see no traffic.
			fetchSegment(b, pops[0], "bench", pl.Segments[0].URI)

			originBefore := svc.origin.SegmentRequests.Load()
			peerBefore := pops[0].PeerServes.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pops[1].unregister("bench", nil)
				pops[1].register("bench", seg)
				var wg sync.WaitGroup
				for v := 0; v < viewers; v++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := &discardResponseWriter{}
						pops[1].ServeHTTP(w, httptest.NewRequest(http.MethodGet, uri, nil))
						if w.n == 0 {
							b.Error("empty segment response")
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(svc.origin.SegmentRequests.Load()-originBefore)/float64(b.N), "origin-fills/op")
			b.ReportMetric(float64(pops[0].PeerServes.Load()-peerBefore)/float64(b.N), "peer-fills/op")
			b.SetBytes(int64(segBytes * viewers))
		})
	}
}
