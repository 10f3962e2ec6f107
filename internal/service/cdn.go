package service

import (
	"fmt"
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
//     cache) and keeps its playlist current over one request the origin
//     holds until the next segment is cut.
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

// originTier serves every registered broadcast's playlist and segments to
// the POPs — the single fill source of the CDN.
type originTier struct {
	endpoint
	mounts[*hls.Origin]

	// Requests and Bytes count fill traffic served to the POPs (Bytes the
	// 200 bodies); PlaylistRequests/SegmentRequests split the well-formed
	// requests for a mounted broadcast by kind (the single-flight tests pin
	// SegmentRequests to one per segment however many viewers fan in at
	// the edge).
	Requests         atomic.Int64
	Bytes            atomic.Int64
	PlaylistRequests atomic.Int64
	SegmentRequests  atomic.Int64
}

func newOriginTier() (*originTier, error) {
	o := &originTier{}
	if err := o.listen(o); err != nil {
		return nil, err
	}
	return o, nil
}

// register mounts a broadcast's segmenter at /hls/<id>/.
func (o *originTier) register(id string, seg *hls.Segmenter) {
	o.mounts.register(id, seg, func() *hls.Origin { return &hls.Origin{Seg: seg, Stop: o.closing.Done()} })
}

// counts splits the registered mounts into live broadcasts and replay
// (VOD) mounts — the latter outlive their broadcast by design — and adds
// up the fill requests the origins hold open right now.
func (o *originTier) counts() (live, replays int, held int64) {
	o.each(func(id string, origin *hls.Origin) {
		if strings.HasSuffix(id, replaySuffix) {
			replays++
		} else {
			live++
		}
		held += origin.Held.Load()
	})
	return live, replays, held
}

// ServeHTTP routes /hls/<broadcastID>/<file> to the broadcast's origin.
// Everything is counted before the body goes out, so a client holding a
// complete response never reads a counter that lags it.
func (o *originTier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.Requests.Add(1)
	origin := o.get(mountID(r.URL.Path, "/hls/"))
	if origin == nil {
		http.NotFound(w, r)
		return
	}
	res := hls.Resolve(r, origin, false)
	if res.Playlist {
		o.PlaylistRequests.Add(1)
	} else if res.Segment {
		o.SegmentRequests.Add(1)
	}
	o.Bytes.Add(int64(len(res.Body)))
	res.Write(w)
}

// cdnPOP is one CDN edge (the study saw exactly two HLS delivery IPs,
// "located somewhere in Europe and in San Francisco" — the default
// placement). Each registered broadcast is an hls.Replica filling
// hierarchically: peer POPs nearer than the origin first (cache-only,
// over /peer/), then the origin tier. Each replica prefetches on its own
// fill cap, so a broadcast whose upstream hangs holds up no other
// broadcast's prefetches.
type cdnPOP struct {
	endpoint
	mounts[*hls.Replica]

	svc    *Service
	index  int
	region geo.Region

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

	// fills is the POP's cumulative fill counter block. Every replica and
	// tiered source the POP registers counts into it, so the totals are
	// monotonic across broadcast churn and relaunch by construction, and
	// steering reads them without touching a replica.
	fills hls.FillCounters

	// Requests and Bytes count traffic served to viewers (Bytes the 200
	// bodies). PeerRequests counts probes arriving from peer POPs,
	// PeerServes the ones answered from cache (PeerBytesOut their volume)
	// — the serving side of the peer-fill protocol.
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
	pop := &cdnPOP{svc: svc, index: index, region: region}
	if err := pop.listen(pop); err != nil {
		return nil, err
	}
	return pop, nil
}

// register exposes a broadcast at /hls/<id>/ through an edge replica
// filling hierarchically: peer POPs nearer than the origin first
// (cache-only probes against their /peer/ mounts), then the origin tier.
// A replica kept by the mount table's identity rule stays warm; a replaced
// one starts cold and the one it replaces is closed. Its cache window and
// pacing derive from the origin segmenter's parameters; its fill
// concurrency cap is the hls default.
func (p *cdnPOP) register(id string, seg *hls.Segmenter) {
	old := p.mounts.register(id, seg, func() *hls.Replica {
		// Every upstream is gated by the breaker of its link: a dead origin
		// path or peer trips once per POP and every broadcast's fills skip
		// it in O(1) until the half-open probe clears.
		var origin hls.SegmentSource = &hls.FillClient{BaseURL: p.svc.origin.baseURL() + "/hls/" + id, HTTP: p.originHTTP}
		if p.originBreaker != nil {
			origin = &hls.BreakerSource{Source: origin, Breaker: p.originBreaker}
		}
		src := &hls.TieredSource{Origin: origin, Counters: &p.fills}
		for _, pr := range p.peers {
			peer := &hls.FillClient{BaseURL: pr.pop.baseURL() + "/peer/" + id, HTTP: pr.client}
			src.Peers = append(src.Peers, &hls.BreakerSource{Source: peer, Breaker: pr.breaker})
		}
		return hls.NewReplica(hls.ReplicaConfig{
			Source:         src,
			Window:         seg.WindowSize(),
			TargetDuration: seg.Target(),
			FillAttempts:   p.svc.cfg.CDNFillAttempts,
			Counters:       &p.fills,
		})
	})
	if old != nil {
		old.Close()
	}
}

// unregister removes the broadcast's mount (see mounts.unregister) and
// closes its replica, which must not keep a request open at the origin.
func (p *cdnPOP) unregister(id string, seg *hls.Segmenter) {
	if old := p.mounts.unregister(id, seg); old != nil {
		old.Close()
	}
}

// warm starts the broadcast's replica warm-up (background playlist fetch
// plus live-window prefetch), so a promotion does not eat a first-viewer
// miss storm. Live promotions warm; replay (VOD) mounts do not —
// prefetching a whole VOD into every POP would be the opposite of an
// optimization.
func (p *cdnPOP) warm(id string) {
	if rep := p.get(id); rep != nil {
		rep.WarmUp()
	}
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

// ServeHTTP routes /hls/<broadcastID>/<file> (viewer-facing, fills on
// miss) and /peer/<broadcastID>/<file> (peer-facing: segments only, from
// cache only — a 404 means "I don't hold it, go elsewhere").
func (p *cdnPOP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.blackhole.Load() {
		// A dead POP answers nothing — viewers and peer probes alike get
		// an immediate refusal (peers' breakers turn this into O(1)
		// skips). Counted nowhere: a dead machine keeps no counters.
		http.Error(w, "pop offline", http.StatusServiceUnavailable)
		return
	}
	id, peer := mountID(r.URL.Path, "/peer/"), true
	if id == "" {
		id, peer = mountID(r.URL.Path, "/hls/"), false
	}
	if peer {
		p.PeerRequests.Add(1)
	} else {
		p.Requests.Add(1)
	}
	rep := p.get(id)
	if rep == nil {
		http.NotFound(w, r)
		return
	}
	res := hls.Resolve(r, rep, peer)
	switch {
	case !peer:
		p.Bytes.Add(int64(len(res.Body)))
	case res.Status == http.StatusOK:
		p.PeerServes.Add(1)
		p.PeerBytesOut.Add(int64(len(res.Body)))
	}
	res.Write(w)
}

// close drains the POP gracefully, then the replicas' watches and
// prefetches stop.
func (p *cdnPOP) close() {
	p.endpoint.close()
	var reps []*hls.Replica // Close waits for a goroutine: not under the table's lock
	p.each(func(_ string, rep *hls.Replica) { reps = append(reps, rep) })
	for _, rep := range reps {
		rep.Close()
	}
	// Drop the fill paths' keep-alive sockets: a decommissioned POP must
	// not strand origin/peer connections (and their transport
	// goroutines) just because they were warm.
	if p.originHTTP != nil {
		p.originHTTP.CloseIdleConnections()
	}
	for _, pr := range p.peers {
		pr.client.CloseIdleConnections()
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
		FillStats:     p.fills.Load(),
		Index:         p.index,
		Region:        p.region.Name,
		Requests:      p.Requests.Load(),
		Bytes:         p.Bytes.Load(),
		PeerRequests:  p.PeerRequests.Load(),
		PeerServes:    p.PeerServes.Load(),
		PeerBytesOut:  p.PeerBytesOut.Load(),
		Health:        p.health().String(),
		FillErrorRate: p.fillErrorRate(),
		Reroutes:      p.reroutes.Load(),
	}
	if p.originBreaker != nil {
		st.OriginBreaker = p.originBreaker.State().String()
		st.BreakerTrips = p.originBreaker.Trips()
		st.BreakerRejects = p.originBreaker.Rejects()
	}
	for _, pr := range p.peers {
		st.BreakerTrips += pr.breaker.Trips()
		st.BreakerRejects += pr.breaker.Rejects()
		if pr.breaker.State() != hls.BreakerClosed {
			st.PeerBreakersOpen++
		}
	}
	p.each(func(_ string, rep *hls.Replica) {
		rs := rep.Stats()
		st.Broadcasts++
		st.CachedSegments += rs.CachedSegments
		st.MaxPlaylistAge = max(st.MaxPlaylistAge, rs.PlaylistAge)
	})
	return st
}

// originRegionName places the origin tier, a stand-in for Periscope's own
// datacenter; POP→origin link RTTs derive from it.
const originRegionName = "us-east"

// defaultPOPRegions is the placement when the config names none: the
// paper's two edges ("located somewhere in Europe and in San Francisco").
var defaultPOPRegions = []string{"us-west", "eu-west"}

// resolvePOPRegions maps the config onto one region per POP.
func resolvePOPRegions(cfg Config, regions []geo.Region) ([]geo.Region, error) {
	names := cfg.CDNPOPRegions
	if len(names) == 0 {
		names = defaultPOPRegions
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
// distance, and every other POP ranked by RTT (index breaks ties). That
// ranking is the failover order viewer steering walks — all of it, because
// a viewer must land somewhere even when the whole cluster is dark — and
// its prefix strictly nearer than the origin is the peer list a missing
// segment is probed from before origin fallback. Topology decisions use
// unscaled geographic RTTs; CDNLinkRTTScale only scales the modelled delay
// (0 means the default scale of 1; tests and benchmarks set it NEGATIVE to
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
		p.originBreaker = hls.NewBreaker(s.cfg.CDNBreakerFailures, s.cfg.CDNBreakerCooldown, nil)
		type ranked struct {
			pop *cdnPOP
			rtt time.Duration
		}
		var others []ranked
		for _, q := range s.cdn {
			if q != p {
				others = append(others, ranked{q, geo.LinkRTT(pLoc, q.region.Bounds.Center())})
			}
		}
		sort.SliceStable(others, func(i, j int) bool {
			if others[i].rtt != others[j].rtt {
				return others[i].rtt < others[j].rtt
			}
			return others[i].pop.index < others[j].pop.index
		})
		for _, r := range others {
			p.failover = append(p.failover, r.pop)
			if r.rtt >= originRTT {
				continue
			}
			link := &netem.Link{RTT: time.Duration(float64(r.rtt) * scale)}
			p.peers = append(p.peers, popPeer{
				pop:     r.pop,
				link:    link,
				client:  link.Client(),
				breaker: hls.NewBreaker(s.cfg.CDNBreakerFailures, s.cfg.CDNBreakerCooldown, nil),
			})
		}
	}
}
