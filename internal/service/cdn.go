package service

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/geo"
	"periscope/internal/hls"
	"periscope/internal/netem"
)

// The CDN is modelled as two tiers, matching the paper's observation that
// HLS always came from two Fastly IPs while 87 RTMP servers were seen:
//
//   - an origin tier holding one hls.Origin per popular broadcast (the
//     "transcode, repackage and deliver to Fastly" output), and
//   - edge POPs, each holding an hls.Replica per broadcast that fills
//     segments asynchronously (single-flight per segment, sliding-window
//     cache) and serves stale-while-revalidate playlists.
//
// The POPs have a geography (PR 5): each one is placed in a geo.Region,
// every fill path (POP→origin and POP→peer) runs through a netem.Link
// whose RTT derives from great-circle distance, and fills are
// hierarchical — a missing segment is probed from peer POPs that are
// strictly nearer than the origin (cache-only, nearest first) before
// falling back to the origin, so origin egress per cold segment is
// O(clusters), not O(POPs). Promotions warm replicas in the background,
// and a per-broadcast fill concurrency cap bounds one hot broadcast's
// pull on its peers.
//
// Edge playlist lag is therefore a real, measurable quantity instead of a
// pointer-sharing fiction; fills (peer vs origin), coalesced requests,
// staleness, warm-ups and evictions surface in the service snapshot.

// cdnDrainTimeout bounds the graceful drain of a POP's HTTP server at
// shutdown: in-flight segment responses get this long to complete before
// connections are dropped.
const cdnDrainTimeout = 3 * time.Second

// popFillQueueDepth bounds each POP's background fill queue (playlist
// revalidations and segment prefetches across all of its replicas).
const popFillQueueDepth = 1024

// popFillWorkers is the per-POP fill pool size: fill jobs block on origin
// HTTP fetches, so a few run in parallel or one slow broadcast would
// head-of-line-block every other replica's revalidation.
const popFillWorkers = 8

// originTier serves every registered broadcast's playlist and segments to
// the POPs — the single fill source of the CDN.
type originTier struct {
	ln  net.Listener
	srv *http.Server

	mu      sync.RWMutex
	origins map[string]*hls.Origin

	// Requests and Bytes count fill traffic served to the POPs;
	// PlaylistRequests/SegmentRequests split it by kind (the single-flight
	// tests pin SegmentRequests to one per segment however many viewers
	// fan in at the edge).
	Requests         atomic.Int64
	Bytes            atomic.Int64
	PlaylistRequests atomic.Int64
	SegmentRequests  atomic.Int64
}

func newOriginTier() (*originTier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &originTier{ln: ln, origins: map[string]*hls.Origin{}}
	o.srv = &http.Server{Handler: o}
	go o.srv.Serve(ln)
	return o, nil
}

func (o *originTier) baseURL() string { return "http://" + o.ln.Addr().String() }

// register mounts a broadcast's segmenter at /hls/<id>/. Re-registering
// the same segmenter is a no-op; a different segmenter replaces the mount
// (a broadcast re-going-live during an unregister linger must win over
// its ended predecessor).
func (o *originTier) register(id string, seg *hls.Segmenter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cur, ok := o.origins[id]; ok && cur.Seg == seg {
		return
	}
	o.origins[id] = &hls.Origin{Seg: seg}
}

// unregister removes the broadcast — but only if it is still backed by
// seg, so a lingering end-timer cannot tear down a re-registered live
// broadcast. A nil seg unregisters unconditionally.
func (o *originTier) unregister(id string, seg *hls.Segmenter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cur, ok := o.origins[id]; ok && (seg == nil || cur.Seg == seg) {
		delete(o.origins, id)
	}
}

func (o *originTier) has(id string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.origins[id]
	return ok
}

func (o *originTier) count() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.origins)
}

// counts splits the registered mounts into live broadcasts and replay
// (VOD) mounts; the latter outlive their broadcast by design.
func (o *originTier) counts() (live, replays int) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for id := range o.origins {
		if strings.HasSuffix(id, replaySuffix) {
			replays++
		} else {
			live++
		}
	}
	return live, replays
}

// ServeHTTP routes /hls/<broadcastID>/<file> to the broadcast's origin.
func (o *originTier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.Requests.Add(1)
	id, file, ok := splitHLSPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.mu.RLock()
	origin := o.origins[id]
	o.mu.RUnlock()
	if origin == nil {
		http.NotFound(w, r)
		return
	}
	if file == "playlist.m3u8" {
		o.PlaylistRequests.Add(1)
	} else {
		o.SegmentRequests.Add(1)
	}
	cw := &countingWriter{ResponseWriter: w}
	origin.ServeHTTP(cw, r)
	o.Bytes.Add(cw.n)
}

func (o *originTier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), cdnDrainTimeout)
	defer cancel()
	if o.srv.Shutdown(ctx) != nil {
		o.srv.Close()
	}
}

// splitMountPath parses "<prefix><id>/<file>" (e.g. "/hls/<id>/<file>").
func splitMountPath(path, prefix string) (id, file string, ok bool) {
	rest := strings.TrimPrefix(path, prefix)
	slash := strings.IndexByte(rest, '/')
	if rest == path || slash < 0 {
		return "", "", false
	}
	return rest[:slash], rest[slash+1:], true
}

// splitHLSPath parses "/hls/<id>/<file>".
func splitHLSPath(path string) (id, file string, ok bool) {
	return splitMountPath(path, "/hls/")
}

// cdnPOP is one CDN edge (the study saw exactly two HLS delivery IPs,
// "located somewhere in Europe and in San Francisco" — the default
// placement). Each registered broadcast is an hls.Replica filling
// hierarchically: peer POPs nearer than the origin first (cache-only,
// over /peer/), then the origin tier. One fill worker pool per POP runs
// the background revalidations, prefetches and promotion warm-ups.
type cdnPOP struct {
	svc    *Service
	index  int
	region geo.Region
	ln     net.Listener
	srv    *http.Server
	fill   *hls.FillWorker

	// originLink/originHTTP shape the POP→origin fill path; peers are the
	// fill candidates strictly nearer than the origin, nearest first, each
	// with its own shaped link. failover is every other POP ordered by
	// RTT — the steering order viewers fall back through when this POP is
	// unhealthy. originBreaker guards the POP→origin path (shared by all
	// of this POP's replicas: link health is per upstream, not per
	// broadcast). Wired once by wireCDNTopology before the service
	// accepts traffic, immutable afterwards.
	originLink    *netem.Link
	originHTTP    *http.Client
	originBreaker *hls.Breaker
	peers         []popPeer
	failover      []*cdnPOP

	// blackhole marks the POP dead: every viewer and peer request is
	// refused with 503 until restored — the fault injection a regional
	// outage flips. reroutes counts viewers steered away from this POP
	// (it was their hash-preferred edge) because it was unhealthy.
	blackhole atomic.Bool
	reroutes  atomic.Int64
	healthT   healthTracker

	mu       sync.RWMutex
	replicas map[string]popReplica

	// fills is the POP's cumulative fill counter block. Every replica and
	// tiered source the POP registers counts into it, so the totals are
	// monotonic across broadcast churn and relaunch by construction, and
	// steering reads them without touching a replica.
	fills hls.FillCounters

	// Requests and Bytes count traffic served to viewers. PeerRequests
	// counts probes arriving from peer POPs, PeerServes the ones answered
	// from cache (PeerBytesOut their volume) — the serving side of the
	// peer-fill protocol.
	Requests     atomic.Int64
	Bytes        atomic.Int64
	PeerRequests atomic.Int64
	PeerServes   atomic.Int64
	PeerBytesOut atomic.Int64
}

// popPeer is one fill candidate of a POP: a peer POP, the shaped link to
// it, and the breaker guarding that link (shared by every replica's
// probes — a dead peer is dead for all broadcasts at once).
type popPeer struct {
	pop     *cdnPOP
	link    *netem.Link
	client  *http.Client
	breaker *hls.Breaker
}

// popReplica pairs an edge replica with the origin segmenter it was
// registered for, so conditional unregistration (end-linger timers) can
// tell an ended broadcast's replica from a re-registered live one.
type popReplica struct {
	seg *hls.Segmenter
	rep *hls.Replica
}

// POPHealth is the steering-facing health state of one POP.
type POPHealth int

const (
	// HealthOK serves viewers normally.
	HealthOK POPHealth = iota
	// HealthDegraded still answers but its fill paths are struggling (an
	// open origin breaker or a high windowed fill error rate): new
	// viewers are steered to a healthy POP when one exists.
	HealthDegraded
	// HealthDown refuses requests (blackholed); viewers fail over.
	HealthDown
)

func (h POPHealth) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// healthSampleInterval is how often the windowed fill error rate is
// resampled; degradedErrorRate the windowed rate past which a POP is
// considered degraded.
const (
	healthSampleInterval = 2 * time.Second
	degradedErrorRate    = 0.5
)

// healthTracker turns cumulative fill counters into a windowed error
// rate: the cumulative ratio would never recover after an outage, so the
// rate is computed over deltas between samples.
type healthTracker struct {
	mu         sync.Mutex
	lastAt     time.Time
	lastFills  int64
	lastErrors int64
	rate       float64
}

// sample folds the current cumulative totals in and returns the windowed
// error rate. Totals are resampled at most every healthSampleInterval;
// an idle window (no fills) reads as healthy.
func (t *healthTracker) sample(now time.Time, fills, errors int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastAt.IsZero() {
		t.lastAt, t.lastFills, t.lastErrors = now, fills, errors
		return t.rate
	}
	if now.Sub(t.lastAt) < healthSampleInterval {
		return t.rate
	}
	df, de := fills-t.lastFills, errors-t.lastErrors
	if df > 0 {
		t.rate = float64(de) / float64(df)
	} else {
		t.rate = 0
	}
	t.lastAt, t.lastFills, t.lastErrors = now, fills, errors
	return t.rate
}

// health classifies the POP for steering: blackholed is down; an open or
// probing origin breaker, or a high windowed fill error rate, is
// degraded. Breaker state and the fill totals are a few atomic loads and
// the sampler's own mutex — no POP lock, no replica — so the demand-path
// steering check costs the same however many broadcasts the POP carries.
func (p *cdnPOP) health() POPHealth {
	if p.blackhole.Load() {
		return HealthDown
	}
	if p.originBreaker != nil && p.originBreaker.State() != hls.BreakerClosed {
		return HealthDegraded
	}
	if p.fillErrorRate() > degradedErrorRate {
		return HealthDegraded
	}
	return HealthOK
}

// fillErrorRate samples the POP-wide windowed fill error rate.
func (p *cdnPOP) fillErrorRate() float64 {
	return p.healthT.sample(time.Now(), p.fills.Fills.Load(), p.fills.FillErrors.Load())
}

func newCDNPOP(svc *Service, index int, region geo.Region) (*cdnPOP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pop := &cdnPOP{
		svc:      svc,
		index:    index,
		region:   region,
		ln:       ln,
		fill:     hls.NewFillWorker(popFillQueueDepth, popFillWorkers),
		replicas: map[string]popReplica{},
	}
	pop.srv = &http.Server{Handler: pop}
	go pop.srv.Serve(ln)
	return pop, nil
}

func (p *cdnPOP) baseURL() string { return "http://" + p.ln.Addr().String() }

// register exposes a broadcast at /hls/<id>/ through an edge replica
// filling hierarchically: peer POPs nearer than the origin first
// (cache-only probes against their /peer/ mounts), then the origin tier.
// Re-registering the same segmenter keeps the warm replica; a different
// segmenter (broadcast re-went live during a linger) replaces it with a
// cold one. The replica's cache window and playlist TTL derive from the
// origin segmenter's parameters; its fill concurrency cap is the hls
// default.
func (p *cdnPOP) register(id string, seg *hls.Segmenter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.replicas[id]; ok && cur.seg == seg {
		return
	}
	// Every upstream is gated by the breaker of its link: a dead origin
	// path or peer trips once per POP and every broadcast's fills skip it
	// in O(1) until the half-open probe clears.
	var origin hls.SegmentSource = &hls.FillClient{BaseURL: p.svc.origin.baseURL() + "/hls/" + id, HTTP: p.originHTTP}
	if p.originBreaker != nil {
		origin = &hls.BreakerSource{Source: origin, Breaker: p.originBreaker}
	}
	src := &hls.TieredSource{Origin: origin, Counters: &p.fills}
	for _, pr := range p.peers {
		var peer hls.SegmentSource = &hls.FillClient{BaseURL: pr.pop.baseURL() + "/peer/" + id, HTTP: pr.client}
		if pr.breaker != nil {
			peer = &hls.BreakerSource{Source: peer, Breaker: pr.breaker}
		}
		src.Peers = append(src.Peers, peer)
	}
	p.replicas[id] = popReplica{
		seg: seg,
		rep: hls.NewReplica(hls.ReplicaConfig{
			Source:         src,
			Window:         seg.WindowSize(),
			TargetDuration: seg.Target(),
			FillAttempts:   p.svc.cfg.CDNFillAttempts,
			Enqueue:        p.fill.Enqueue,
			Counters:       &p.fills,
		}),
	}
}

// warm schedules the broadcast's replica warm-up (background playlist
// fetch plus live-window prefetch), so a promotion does not eat a
// first-viewer miss storm. Live promotions warm; replay (VOD) mounts do
// not — prefetching a whole VOD into every POP would be the opposite of
// an optimization. It reports whether the warm-up was scheduled.
func (p *cdnPOP) warm(id string) bool {
	rep := p.replica(id)
	if rep == nil {
		return false
	}
	return rep.WarmUp()
}

// isClusterAnchor reports whether this POP is its cluster's designated
// origin-filler: the lowest-indexed member among itself and its peer
// candidates. Only anchors warm on promotion — if every POP warmed at
// once, all peer caches would be cold at probe time and each POP's
// warm-up would fall through to the origin, turning the promotion burst
// into O(POPs) origin egress. A follower's first fill instead probes its
// (by then warm) anchor.
func (p *cdnPOP) isClusterAnchor() bool {
	for _, pr := range p.peers {
		if pr.pop.index < p.index {
			return false
		}
	}
	return true
}

// unregister drops the broadcast's replica (and its cached segments) —
// but only if it still serves seg; nil unregisters unconditionally.
func (p *cdnPOP) unregister(id string, seg *hls.Segmenter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.replicas[id]; ok && (seg == nil || cur.seg == seg) {
		delete(p.replicas, id)
	}
}

// has reports whether a replica is registered for id.
func (p *cdnPOP) has(id string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.replicas[id]
	return ok
}

// replica returns the broadcast's edge cache (tests, snapshot).
func (p *cdnPOP) replica(id string) *hls.Replica {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.replicas[id].rep
}

// ServeHTTP routes /hls/<broadcastID>/<file> (viewer-facing, fills on
// miss) and /peer/<broadcastID>/<file> (peer-facing, cache-only).
func (p *cdnPOP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.blackhole.Load() {
		// A dead POP answers nothing — viewers and peer probes alike get
		// an immediate refusal (peers' breakers turn this into O(1)
		// skips). Counted nowhere: a dead machine keeps no counters.
		http.Error(w, "pop offline", http.StatusServiceUnavailable)
		return
	}
	if id, file, ok := splitMountPath(r.URL.Path, "/peer/"); ok {
		p.servePeer(w, r, id, file)
		return
	}
	p.Requests.Add(1)
	id, _, ok := splitHLSPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	p.mu.RLock()
	rep := p.replicas[id].rep
	p.mu.RUnlock()
	if rep == nil {
		http.NotFound(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	rep.ServeHTTP(cw, r)
	p.Bytes.Add(cw.n)
}

// servePeer answers another POP's fill probe from cache only: a 404 means
// "I don't hold it, go elsewhere" — a probe must never trigger this POP's
// own fill path, or cold segments would cascade through the mesh.
func (p *cdnPOP) servePeer(w http.ResponseWriter, r *http.Request, id, file string) {
	p.PeerRequests.Add(1)
	rep := p.replica(id)
	if rep == nil {
		http.NotFound(w, r)
		return
	}
	seq, err := hls.ParseSegmentName(file)
	if err != nil {
		// Peers only exchange segments; playlists are origin-only.
		http.Error(w, "peer protocol serves segments only", http.StatusBadRequest)
		return
	}
	data, ok := rep.CachedSegment(seq)
	if !ok {
		http.NotFound(w, r)
		return
	}
	p.PeerServes.Add(1)
	p.PeerBytesOut.Add(int64(len(data)))
	w.Header().Set("Content-Type", "video/MP2T")
	w.Header().Set("Cache-Control", "max-age=3600")
	w.Write(data)
}

// close drains the POP gracefully: in-flight segment responses complete
// (up to cdnDrainTimeout) instead of being cut mid-body, then the fill
// worker stops.
func (p *cdnPOP) close() {
	ctx, cancel := context.WithTimeout(context.Background(), cdnDrainTimeout)
	defer cancel()
	if p.srv.Shutdown(ctx) != nil {
		p.srv.Close()
	}
	p.fill.Stop()
	// Drop the fill paths' keep-alive sockets: a decommissioned POP must
	// not strand origin/peer connections (and their transport
	// goroutines) just because they were warm.
	if p.originHTTP != nil {
		p.originHTTP.CloseIdleConnections()
	}
	for _, pr := range p.peers {
		if pr.client != nil {
			pr.client.CloseIdleConnections()
		}
	}
}

// SetPOPOriginFault installs (or, with a zero profile, clears) a
// probabilistic fault profile on POP i's origin fill link: injected loss
// and latency spikes degrade the fill path without taking the POP dark.
// This is the partial-degradation knob scenario timelines turn — and the
// lever the deliberately-broken SLO fixture uses to prove the harness
// fails on breach.
func (s *Service) SetPOPOriginFault(i int, p netem.FaultProfile) {
	if i < 0 || i >= len(s.cdn) {
		return
	}
	if l := s.cdn[i].originLink; l != nil {
		l.SetFault(p)
	}
}

// stats reads the POP's counters; only the gauges (cache occupancy,
// playlist lag) walk the replicas.
func (p *cdnPOP) stats() POPSnapshot {
	st := POPSnapshot{
		FillStats:        p.fills.Load(),
		Index:            p.index,
		Region:           p.region.Name,
		Requests:         p.Requests.Load(),
		Bytes:            p.Bytes.Load(),
		PeerRequests:     p.PeerRequests.Load(),
		PeerServes:       p.PeerServes.Load(),
		PeerBytesOut:     p.PeerBytesOut.Load(),
		Health:           p.health().String(),
		FillErrorRate:    p.fillErrorRate(),
		Reroutes:         p.reroutes.Load(),
		FillCap:          hls.DefaultFillConcurrency,
		FillQueueDropped: p.fill.Dropped.Load(),
	}
	if p.originBreaker != nil {
		st.OriginBreaker = p.originBreaker.State().String()
		st.BreakerTrips = p.originBreaker.Trips()
		st.BreakerRejects = p.originBreaker.Rejects()
	}
	for _, pr := range p.peers {
		if pr.breaker == nil {
			continue
		}
		st.BreakerTrips += pr.breaker.Trips()
		st.BreakerRejects += pr.breaker.Rejects()
		if pr.breaker.State() != hls.BreakerClosed {
			st.PeerBreakersOpen++
		}
	}
	p.mu.RLock()
	st.Broadcasts = len(p.replicas)
	for _, e := range p.replicas {
		rs := e.rep.Stats()
		st.CachedSegments += rs.CachedSegments
		st.MaxPlaylistAge = max(st.MaxPlaylistAge, rs.PlaylistAge)
	}
	p.mu.RUnlock()
	return st
}

// defaultPOPRegions is the placement order when the config names none:
// the first two match the paper's observation ("located somewhere in
// Europe and in San Francisco"), further POPs spread across the remaining
// regions.
var defaultPOPRegions = []string{
	"us-west", "eu-west", "us-east", "eu-east",
	"asia-east", "south-america", "middle-east", "oceania",
}

// resolvePOPRegions maps the config onto one region per POP.
func resolvePOPRegions(cfg Config, regions []geo.Region) ([]geo.Region, error) {
	names := cfg.CDNPOPRegions
	if len(names) == 0 {
		n := cfg.CDNPOPs
		if n <= 0 {
			n = 2
		}
		for i := 0; i < n; i++ {
			names = append(names, defaultPOPRegions[i%len(defaultPOPRegions)])
		}
	}
	out := make([]geo.Region, 0, len(names))
	for _, name := range names {
		reg, ok := geo.RegionByName(regions, name)
		if !ok {
			return nil, fmt.Errorf("unknown CDN POP region %q", name)
		}
		out = append(out, reg)
	}
	return out, nil
}

// wireCDNTopology builds each POP's shaped fill paths once every POP
// exists: a link to the origin whose RTT derives from great-circle
// distance, and an ordered peer list holding every POP strictly nearer
// than the origin (nearest first) — the candidates a missing segment is
// probed from before origin fallback. Topology decisions use unscaled
// geographic RTTs; CDNLinkRTTScale only scales the modelled delay (0
// means the default scale of 1; tests and benchmarks set it NEGATIVE to
// keep the hierarchy without the sleeps).
func (s *Service) wireCDNTopology() {
	scale := s.cfg.CDNLinkRTTScale
	if scale == 0 {
		scale = 1
	} else if scale < 0 {
		scale = 0
	}
	originLoc := s.originRegion.Bounds.Center()
	for _, p := range s.cdn {
		pLoc := p.region.Bounds.Center()
		originRTT := geo.LinkRTT(pLoc, originLoc)
		p.originLink = &netem.Link{RTT: time.Duration(float64(originRTT) * scale)}
		p.originHTTP = p.originLink.Client()
		type candidate struct {
			pop *cdnPOP
			rtt time.Duration
		}
		var cands []candidate
		for _, q := range s.cdn {
			if q == p {
				continue
			}
			rtt := geo.LinkRTT(pLoc, q.region.Bounds.Center())
			if rtt < originRTT {
				cands = append(cands, candidate{q, rtt})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].rtt != cands[j].rtt {
				return cands[i].rtt < cands[j].rtt
			}
			return cands[i].pop.index < cands[j].pop.index
		})
		for _, c := range cands {
			link := &netem.Link{RTT: time.Duration(float64(c.rtt) * scale)}
			p.peers = append(p.peers, popPeer{
				pop:     c.pop,
				link:    link,
				client:  link.Client(),
				breaker: hls.NewBreaker(s.cfg.CDNBreakerFailures, s.cfg.CDNBreakerCooldown, nil),
			})
		}
		p.originBreaker = hls.NewBreaker(s.cfg.CDNBreakerFailures, s.cfg.CDNBreakerCooldown, nil)

		// Failover order for viewer steering: every other POP by RTT —
		// unlike the peer-fill candidates, it is not limited to POPs
		// nearer than the origin, because a viewer must land somewhere
		// even when the whole cluster is dark.
		type ranked struct {
			pop *cdnPOP
			rtt time.Duration
		}
		var all []ranked
		for _, q := range s.cdn {
			if q == p {
				continue
			}
			all = append(all, ranked{q, geo.LinkRTT(pLoc, q.region.Bounds.Center())})
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].rtt != all[j].rtt {
				return all[i].rtt < all[j].rtt
			}
			return all[i].pop.index < all[j].pop.index
		})
		for _, r := range all {
			p.failover = append(p.failover, r.pop)
		}
	}
}

// countingWriter counts bytes served without masking the wrapped
// ResponseWriter's optional interfaces: streaming playlist/segment
// responses still reach http.Flusher (directly or via
// http.ResponseController's Unwrap), and sendfile-style io.ReaderFrom
// copies are passed through.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(b)
	cw.n += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so chunked live-playlist
// responses are not held back by the counting layer.
func (cw *countingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom lets io.Copy use the underlying writer's ReadFrom (sendfile)
// while still counting the bytes.
func (cw *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	n, err := io.Copy(cw.ResponseWriter, r)
	cw.n += n
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (cw *countingWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }
