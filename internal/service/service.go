// Package service assembles the Periscope-like backend under measurement:
// the JSON API (internal/api), one RTMP ingest/relay server per world
// region (the "EC2 vidman" machines of §3 — region-nearest to the
// broadcaster), the popularity-triggered HLS pipeline (repackage the RTMP
// stream into MPEG-TS segments at an origin tier and serve them from
// geo-placed CDN POPs, as the paper observed: all HLS streams came from
// two IP addresses — one in San Francisco, one in Europe — while 87 RTMP
// servers were seen), and the WebSocket chat with its avatar store.
//
// The CDN has a geography: each POP lives in a geo.Region, fill paths are
// shaped by links whose RTT derives from great-circle distance, and a
// missing segment fills hierarchically — nearest peer POP first
// (cache-only probes), origin as fallback — so origin egress per cold
// segment is O(clusters), not O(POPs). Promotions warm edge replicas in
// the background, and per-broadcast fill concurrency caps bound a hot
// broadcast's pull on its peers.
//
// The broadcast lifecycle is driven end-to-end by the population: a
// scheduled Broadcast.End fires Service.EndBroadcast through the
// population's end hook (ENDLIST playlists at origin and every POP, a
// linger for draining viewers, then unregistration everywhere), and an
// optional churn loop advances the population in real time.
//
// Broadcasters are synthetic: each watched broadcast gets a broadcaster
// engine that pushes real RTMP (FLV-tagged AVC+AAC from internal/media)
// over loopback into its regional ingest server, where the stream fans out
// to RTMP viewers and, for popular broadcasts, into the segmenter.
package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"periscope/internal/api"
	"periscope/internal/broadcastmodel"
	"periscope/internal/chat"
	"periscope/internal/geo"
	"periscope/internal/hls"
)

// Config tunes the assembled service.
type Config struct {
	PopConfig broadcastmodel.Config
	// HLSViewerThreshold is the audience size beyond which a broadcast is
	// served via HLS ("the boundary … is somewhere around 100 viewers").
	HLSViewerThreshold int
	// SegmentTarget is the HLS segment duration target (3.6 s observed).
	SegmentTarget time.Duration
	// CDNPOPRegions places one POP per named geo region (repeats allowed:
	// two "us-west" entries are a two-POP cluster). Empty means the two
	// edges the study saw: us-west and eu-west.
	CDNPOPRegions []string
	// CDNLinkRTTScale scales the geographically derived RTT on every fill
	// link (POP→origin and POP→peer). 0 means the default scale of 1;
	// negative disables modelled latency entirely (tests, benchmarks) —
	// the fill hierarchy is kept either way.
	CDNLinkRTTScale float64
	// CDNFillAttempts is the per-fill retry budget inside the
	// single-flight (see hls.ReplicaConfig.FillAttempts); 0 uses
	// hls.DefaultFillAttempts.
	CDNFillAttempts int
	// CDNBreakerFailures is the consecutive-failure threshold tripping a
	// fill-path circuit breaker (per upstream: origin link and each peer
	// link of every POP); CDNBreakerCooldown how long a tripped breaker
	// stays open before its half-open probe. Zeros use the hls defaults.
	CDNBreakerFailures int
	CDNBreakerCooldown time.Duration
	// CDNUnregisterLinger is how long an ended broadcast stays registered
	// at the origin tier and edge POPs, so viewers mid-stream can fetch
	// the final (ENDLIST) playlist and drain the last window. Zero
	// unregisters immediately.
	CDNUnregisterLinger time.Duration
	// ChurnInterval, when positive, advances the population in real time
	// (one tick per interval), so scheduled broadcast ends fire on their
	// own: the population's Broadcast.End drives Service.EndBroadcast and
	// the CDN churns broadcasts end-to-end. Zero leaves the population
	// static unless the caller advances it (tests drive Pop.Advance with a
	// virtual clock; the scheduled-end hook fires either way).
	ChurnInterval time.Duration
	// APIRateLimit enables 429 responses (requests/second per session).
	APIRateLimit float64
	APIBurst     float64
	Seed         int64
}

// DefaultConfig mirrors the observed service parameters at reduced scale.
func DefaultConfig() Config {
	pc := broadcastmodel.DefaultConfig()
	pc.TargetConcurrent = 300 // wire tier runs small; model tier scales up
	return Config{
		PopConfig:           pc,
		HLSViewerThreshold:  100,
		SegmentTarget:       3600 * time.Millisecond,
		CDNLinkRTTScale:     1,
		CDNUnregisterLinger: 15 * time.Second,
		APIRateLimit:        2,
		APIBurst:            6,
		Seed:                1,
	}
}

// Service is the running backend.
type Service struct {
	cfg Config

	Pop  *broadcastmodel.Population
	API  *api.Server
	Chat *chat.Server

	apiEP, chatEP endpoint

	regions      []geo.Region
	ingest       map[string]*ingestServer // region name -> RTMP ingest
	origin       *originTier              // CDN fill source (one Origin per broadcast)
	originRegion geo.Region               // where the origin tier lives
	cdn          []*cdnPOP

	// churnStop ends the background population-churn loop (ChurnInterval);
	// churnDone is closed when the loop has exited, so Close can wait for
	// any in-flight scheduled-end processing before tearing timers down.
	churnStop chan struct{}
	churnDone chan struct{}

	// delivery is the service-lifetime block of fan-out counters every hub
	// counts into.
	delivery deliveryCounters

	// mu guards hubs and done. It is an RWMutex because hubFor runs on
	// every media message: routing takes the read side only, so it never
	// contends with other readers and only waits on the rare control-plane
	// writes (hub creation, shutdown).
	mu   sync.RWMutex
	hubs map[string]*hub // broadcast ID -> live pipeline
	done bool

	// timerMu guards the pending CDN unregister timers (broadcast-end
	// linger); a fired timer removes its own entry, Close stops the rest.
	timerMu   sync.Mutex
	endTimers map[*time.Timer]struct{}

	// replayMu serialises this service's VOD builds, so a replay is
	// rendered and mounted once however many viewers ask at once.
	replayMu sync.Mutex
}

// Start builds and starts every component on loopback ports.
func Start(cfg Config) (*Service, error) {
	if cfg.HLSViewerThreshold <= 0 {
		cfg.HLSViewerThreshold = 100
	}
	s := &Service{
		cfg:     cfg,
		Pop:     broadcastmodel.New(cfg.PopConfig, time.Now()),
		Chat:    chat.NewServer(),
		regions: geo.Regions(),
		ingest:  map[string]*ingestServer{},
		hubs:    map[string]*hub{},
	}

	// Regional RTMP ingest servers.
	for _, r := range s.regions {
		ing, err := newIngestServer(s, r.Name)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: starting ingest %s: %w", r.Name, err)
		}
		s.ingest[r.Name] = ing
	}

	// CDN origin tier: the authoritative fill source, placed in a region
	// so POP→origin RTTs have a geography.
	s.originRegion, _ = geo.RegionByName(s.regions, originRegionName)
	origin, err := newOriginTier()
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("service: starting CDN origin tier: %w", err)
	}
	s.origin = origin

	// CDN POPs ("Fastly" edges), each placed in a geo region; once all
	// exist, wire the fill topology (shaped origin links, nearest-peer
	// candidate lists).
	popRegions, err := resolvePOPRegions(cfg, s.regions)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	for i, reg := range popRegions {
		pop, err := newCDNPOP(s, i, reg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: starting CDN POP %d: %w", i, err)
		}
		s.cdn = append(s.cdn, pop)
	}
	s.wireCDNTopology()

	// Scheduled broadcast ends drive the real end-of-broadcast path:
	// however the population advances (background churn loop or a test's
	// virtual clock), an expired Broadcast.End tears its pipeline down.
	s.Pop.OnBroadcastEnd(s.onScheduledEnds)
	if cfg.ChurnInterval > 0 {
		s.churnStop = make(chan struct{})
		s.churnDone = make(chan struct{})
		go s.churnLoop(cfg.ChurnInterval)
	}

	// Chat server.
	if err := s.chatEP.listen(s.Chat); err != nil {
		s.Close()
		return nil, err
	}

	// API gateway, under the service's rate policy.
	s.API = api.NewServer(s.Pop, s, api.ServerConfig{RateLimit: cfg.APIRateLimit, Burst: cfg.APIBurst, Seed: cfg.Seed})
	if err := s.apiEP.listen(s.API); err != nil {
		s.Close()
		return nil, err
	}

	return s, nil
}

// APIBaseURL returns the http:// base of the API server.
func (s *Service) APIBaseURL() string { return s.apiEP.baseURL() }

// ChatBaseURL returns the http:// base of the chat/avatar server.
func (s *Service) ChatBaseURL() string { return s.chatEP.baseURL() }

// RTMPServerNames lists the DNS-style names of the ingest fleet, e.g.
// vidman-eu-west.periscope.tv, with their EC2-style reverse names.
func (s *Service) RTMPServerNames() map[string]string {
	out := map[string]string{}
	for name, ing := range s.ingest {
		addr := ing.srv.Addr().String()
		out["vidman-"+name+".periscope.tv"] = "ec2-" + addr + ".compute.amazonaws.com"
	}
	return out
}

// churnLoop advances the population in real time so scheduled broadcast
// ends fire on their own — the wire tier churns broadcasts end-to-end.
func (s *Service) churnLoop(interval time.Duration) {
	defer close(s.churnDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.churnStop:
			return
		case <-t.C:
			// Real elapsed time maps 1:1 onto virtual time; Advance invokes
			// onScheduledEnds for every broadcast whose End expired.
			s.Pop.Advance(interval)
		}
	}
}

// onScheduledEnds is the population's end listener: any ended broadcast
// with a live pipeline goes through the full EndBroadcast path (segmenter
// finished → ENDLIST at origin and every POP → linger → unregister).
func (s *Service) onScheduledEnds(ended []*broadcastmodel.Broadcast) {
	for _, b := range ended {
		if s.hubFor(b.ID) != nil {
			s.EndBroadcast(b.ID)
		}
	}
}

// CDNTopology describes the wired CDN fill topology, one line per tier
// member: where the origin and each POP live, each POP's modelled origin
// RTT, and the nearest-peer order its fills probe before origin fallback.
func (s *Service) CDNTopology() []string {
	out := []string{fmt.Sprintf("origin @ %s", s.originRegion.Name)}
	for _, p := range s.cdn {
		var b strings.Builder
		fmt.Fprintf(&b, "pop %d @ %s", p.index, p.region.Name)
		if p.originLink != nil {
			fmt.Fprintf(&b, " (origin RTT %v)", p.originLink.RTT.Round(time.Millisecond))
		}
		if len(p.peers) == 0 {
			b.WriteString(" — fills from origin")
		} else {
			b.WriteString(" — fills from")
			for i, pr := range p.peers {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " pop %d (%v)", pr.pop.index, pr.link.RTT.Round(time.Millisecond))
			}
			b.WriteString(", then origin")
		}
		out = append(out, b.String())
	}
	return out
}

// Close shuts everything down.
func (s *Service) Close() {
	s.mu.Lock()
	wasDone := s.done
	s.done = true
	hubs := make([]*hub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	s.mu.Unlock()
	if s.churnStop != nil && !wasDone {
		// Stop the churn loop and wait it out: a tick mid-Advance may be
		// inside EndBroadcast, and its linger timer must be armed (and thus
		// stoppable) before the timer teardown below runs.
		close(s.churnStop)
		<-s.churnDone
	}
	s.timerMu.Lock()
	for t := range s.endTimers {
		t.Stop()
	}
	s.endTimers = nil
	s.timerMu.Unlock()
	for _, h := range hubs {
		h.stop()
	}
	for _, ing := range s.ingest {
		ing.srv.Close()
	}
	// POPs drain before the origin tier goes away: an in-flight fill must
	// not lose its upstream mid-drain.
	for _, pop := range s.cdn {
		pop.close()
	}
	if s.origin != nil {
		s.origin.close()
	}
	s.apiEP.close()
	s.chatEP.close()
	// Linger timers are already stopped, so no deferred room close will
	// fire: close every room here.
	if s.Chat != nil {
		s.Chat.Close()
	}
}

// EndBroadcast ends a live broadcast's pipeline: the hub stops (finishing
// the segmenter, so origin and edge playlists go final with
// #EXT-X-ENDLIST) and — after CDNUnregisterLinger, so current viewers can
// fetch the final playlist and drain the last window — the broadcast is
// unregistered from the origin tier and every POP, and its chat room
// closes. Without this, ended broadcasts would pin their segmenters in
// the CDN maps — and their chat rooms in the chat server — forever. The
// hub, the replicas and the room all count into blocks their parents own,
// so nothing is copied on the way out.
func (s *Service) EndBroadcast(id string) {
	s.mu.Lock()
	h := s.hubs[id]
	delete(s.hubs, id)
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.stop()
	// Chat-room teardown rides the same linger as CDN unregistration, so
	// viewers draining the final window can keep chatting. BeginClose marks
	// the room ending; a relaunch during the linger (AccessVideo reusing
	// the room) clears the mark and the stale deferred close backs off.
	room := s.Chat.BeginClose(id)
	closeChat := func() { s.Chat.CloseRoomIf(id, room) }
	seg := h.Segmenter()
	if seg == nil {
		// HLS never enabled: nothing registered at the CDN, no viewers to
		// drain — the room can close now.
		closeChat()
		return
	}
	// Unregistration is conditional on the ended segmenter: if the
	// broadcast re-goes live during the linger, its re-registration
	// replaces the mounts and this teardown leaves the live one alone.
	unregister := func() {
		s.origin.unregister(id, seg)
		for _, pop := range s.cdn {
			pop.unregister(id, seg)
		}
		closeChat()
	}
	linger := s.cfg.CDNUnregisterLinger
	if linger <= 0 {
		unregister()
		return
	}
	s.timerMu.Lock()
	// Closed-service check inside the timer lock: Close sets done before
	// it clears endTimers (also under timerMu), so either this arming
	// happens first and Close stops the timer, or done is visible here and
	// the broadcast unregisters inline — a linger timer can never outlive
	// the service.
	s.mu.RLock()
	closed := s.done
	s.mu.RUnlock()
	if closed {
		s.timerMu.Unlock()
		unregister()
		return
	}
	if s.endTimers == nil {
		s.endTimers = map[*time.Timer]struct{}{}
	}
	var tm *time.Timer
	tm = time.AfterFunc(linger, func() {
		unregister()
		// Drop our own entry so long-running services with broadcast
		// churn do not accumulate fired timers.
		s.timerMu.Lock()
		delete(s.endTimers, tm)
		s.timerMu.Unlock()
	})
	s.endTimers[tm] = struct{}{}
	s.timerMu.Unlock()
}

// AccessVideo implements api.VideoAccessProvider: it starts the broadcast
// pipeline on demand and applies the protocol-selection policy. Ended
// broadcasts that were made available for replay are served as HLS VOD
// ("Broadcasts can also be made available for replay", §3; replay playback
// is the "video on, not live" scenario of Fig. 7).
func (s *Service) AccessVideo(id string) (api.AccessVideoResponse, error) {
	b, ok := s.Pop.Get(id)
	if !ok {
		if eb, live, found := s.Pop.GetAny(id); found && !live && eb.AvailableForReplay {
			return s.replayAccess(eb)
		}
		return api.AccessVideoResponse{}, fmt.Errorf("broadcast %s not live", id)
	}
	h, err := s.ensureHub(b)
	if err != nil {
		return api.AccessVideoResponse{}, err
	}
	viewers := b.ViewersAt(s.Pop.Now())
	resp := api.AccessVideoResponse{
		NumWatching: viewers,
		ChatURL:     "ws://" + s.chatEP.addr + "/chat/" + id,
		StreamName:  id,
	}
	if viewers >= s.cfg.HLSViewerThreshold {
		// Popular: serve via HLS from a CDN POP. The POP choice models
		// viewer proximity; a single measurement location therefore always
		// sees the same couple of IPs.
		if err := h.enableHLS(); err != nil {
			return resp, err
		}
		pop := s.selectPOP(id)
		resp.Protocol = "HLS"
		resp.HLSBaseURL = pop.baseURL() + "/hls/" + id
	} else {
		resp.Protocol = "RTMP"
		ing := s.ingest[b.Region]
		resp.RTMPAddr = ing.srv.Addr().String()
		resp.RTMPServer = "vidman-" + b.Region + ".periscope.tv"
	}
	// Chat room mirrors the audience size.
	s.Chat.Room(id, chat.RoomConfigForViewers(viewers, b.Seed))
	return resp, nil
}

// selectPOP is health-driven viewer steering: the hash-preferred POP
// (viewer proximity model) serves while healthy; otherwise the viewer is
// re-routed along the preferred POP's failover order to the nearest
// healthy POP, falling back to the nearest merely-degraded one, and only
// lands on a down POP when every edge is dark. Re-routes are counted on
// the preferred POP — "viewers steered away from here".
func (s *Service) selectPOP(id string) *cdnPOP {
	preferred := s.cdn[s.PreferredPOPIndex(id)]
	if len(s.cdn) == 1 {
		return preferred
	}
	health := preferred.health()
	if health == HealthOK {
		return preferred
	}
	var degraded *cdnPOP
	if health == HealthDegraded {
		// A degraded POP keeps its viewers unless someone healthy exists:
		// locality still beats a farther degraded edge.
		degraded = preferred
	}
	target := preferred
	for _, q := range preferred.failover {
		switch q.health() {
		case HealthOK:
			target = q
		case HealthDegraded:
			if degraded == nil {
				degraded = q
			}
			continue
		default:
			continue
		}
		break
	}
	if target == preferred && degraded != nil {
		target = degraded
	}
	if target != preferred {
		preferred.reroutes.Add(1)
	}
	return target
}

// PreferredPOPIndex reports which POP the steering hash prefers for a
// broadcast — the edge its viewers land on while it is healthy,
// index-aligned with Snapshot().POPs. Scenario timelines use it to aim
// outages at (or away from) a broadcast's serving region.
func (s *Service) PreferredPOPIndex(id string) int {
	// Modulo in uint32: on a 32-bit int the converted hash can be negative.
	return int(fnv32(id) % uint32(len(s.cdn)))
}

// PreferredPOPRegion reports the geo region of the hash-preferred POP.
func (s *Service) PreferredPOPRegion(id string) string {
	return s.cdn[s.PreferredPOPIndex(id)].region.Name
}

// BroadcastSegments reports how many HLS segments the broadcast's
// segmenter has produced so far (0 when the broadcast has no live hub or
// HLS was never enabled). Scenario SLOs use it to bound origin egress per
// segment.
func (s *Service) BroadcastSegments(id string) int {
	h := s.hubFor(id)
	if h == nil {
		return 0
	}
	seg := h.Segmenter()
	if seg == nil {
		return 0
	}
	return seg.SegmentCount()
}

// BlackholePOP injects a hard POP outage: POP i refuses every viewer and
// peer request with 503 until RestorePOP. Peers' breakers trip and skip
// it; steering routes its viewers to the next-nearest healthy POP.
func (s *Service) BlackholePOP(i int) {
	if i >= 0 && i < len(s.cdn) {
		s.cdn[i].blackhole.Store(true)
	}
}

// RestorePOP lifts a POP outage and re-warms every registered replica
// through the normal background fill path (peer probes first), so the
// recovered edge returns warm instead of eating a miss storm. Counters
// are untouched — they stay cumulative across outage and recovery.
func (s *Service) RestorePOP(i int) {
	if i < 0 || i >= len(s.cdn) {
		return
	}
	p := s.cdn[i]
	p.blackhole.Store(false)
	p.each(func(_ string, rep *hls.Replica) { rep.WarmUp() })
}

// RegionOutage blackholes every POP placed in the named region — the
// scenario-scale fault: a whole geography goes dark at once. It returns
// how many POPs went down.
func (s *Service) RegionOutage(region string) int {
	n := 0
	for i, p := range s.cdn {
		if p.region.Name == region {
			s.BlackholePOP(i)
			n++
		}
	}
	return n
}

// RestoreRegion lifts a regional outage, re-warming each recovered POP.
// It returns how many POPs came back.
func (s *Service) RestoreRegion(region string) int {
	n := 0
	for i, p := range s.cdn {
		if p.region.Name == region && p.blackhole.Load() {
			s.RestorePOP(i)
			n++
		}
	}
	return n
}

// POPHealthStates lists each POP's current steering state, index-aligned
// with Snapshot().POPs.
func (s *Service) POPHealthStates() []string {
	out := make([]string, len(s.cdn))
	for i, p := range s.cdn {
		out[i] = p.health().String()
	}
	return out
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for _, c := range []byte(s) {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}
