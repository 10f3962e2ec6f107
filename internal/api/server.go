package api

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/geo"
)

// SessionHeader carries the logged-in user's session token; the rate
// limiter keys on it.
const SessionHeader = "X-Periscope-Session"

// VideoAccessProvider resolves where a broadcast's stream can be fetched.
// The service layer implements it; API tests use a stub.
type VideoAccessProvider interface {
	AccessVideo(broadcastID string) (AccessVideoResponse, error)
}

// ServerConfig tunes the API gateway.
type ServerConfig struct {
	// RateLimit is the sustained per-session request rate; Burst the
	// bucket depth. Zero rate disables limiting.
	RateLimit float64
	Burst     float64
	// MapVisibleCap bounds how many broadcasts one mapGeoBroadcastFeed
	// response reveals — the reason zooming in uncovers more broadcasts
	// and the deep crawl must recurse.
	MapVisibleCap int
	// MaxBroadcastIDs caps the ids accepted per getBroadcasts request
	// (default 100); larger lists get a too_many_ids error.
	MaxBroadcastIDs int
	// Seed drives the teleport randomness.
	Seed int64
}

// DefaultServerConfig mirrors observed service behaviour.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		RateLimit:       2,
		Burst:           6,
		MapVisibleCap:   50,
		MaxBroadcastIDs: 100,
		Seed:            1,
	}
}

// Server is the Periscope-style API gateway: the five Table-1 endpoints
// mounted through the typed registry, wrapped by the middleware chain
// (recovery, method check, session keying, rate limiting, metrics).
type Server struct {
	Pop     *broadcastmodel.Population
	Video   VideoAccessProvider
	cfg     ServerConfig
	limiter *RateLimiter
	metrics *Metrics
	handler http.Handler
	rngMu   sync.Mutex
	rng     *rand.Rand
	metaMu  sync.Mutex
	metas   []PlaybackMeta
}

// NewServer wires the API over a population. video may be nil (accessVideo
// then returns 503), letting usage-pattern studies run without the media
// plane.
func NewServer(pop *broadcastmodel.Population, video VideoAccessProvider, cfg ServerConfig) *Server {
	if cfg.MapVisibleCap <= 0 {
		cfg.MapVisibleCap = 50
	}
	if cfg.MaxBroadcastIDs <= 0 {
		cfg.MaxBroadcastIDs = 100
	}
	s := &Server{
		Pop:     pop,
		Video:   video,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		metrics: newMetrics(EndpointNames()),
	}
	if cfg.RateLimit > 0 {
		s.limiter = NewRateLimiter(cfg.RateLimit, cfg.Burst)
		s.limiter.SetNowFunc(func() time.Time { return pop.Now() })
	}

	mux := http.NewServeMux()
	mount(mux, MapGeoBroadcastFeedEndpoint, s.mapGeo)
	mount(mux, GetBroadcastsEndpoint, s.getBroadcasts)
	mount(mux, PlaybackMetaEndpoint, s.playbackMeta)
	mount(mux, AccessVideoEndpoint, s.accessVideo)
	mount(mux, TeleportEndpoint, s.teleport)

	s.handler = Chain(mux,
		Recovery(func(any) { s.metrics.Panics.Add(1) }),
		RequirePOST(),
		SessionAuth(),
		RateLimit(s.limiter, s.metrics),
		CollectMetrics(s.metrics),
	)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Metrics returns a snapshot of the gateway counters.
func (s *Server) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// desc renders a broadcast description. A non-zero viewersNow samples the
// audience size at that instant; callers hoist Pop.Now() out of their
// loops so a batch request takes the population clock lock once, not once
// per id.
func (s *Server) desc(b *broadcastmodel.Broadcast, viewersNow time.Time) BroadcastDesc {
	d := BroadcastDesc{
		ID:                 b.ID,
		CreatedAt:          b.StartRFC3339(),
		State:              "RUNNING",
		LocationDisclosed:  b.LocationDisclosed,
		AvailableForReplay: b.AvailableForReplay,
		Region:             b.Region,
	}
	if b.LocationDisclosed {
		d.Latitude = b.Location.Lat
		d.Longitude = b.Location.Lon
	}
	if !viewersNow.IsZero() {
		d.NumWatching = b.ViewersAt(viewersNow)
	}
	return d
}

func (s *Server) mapGeo(_ context.Context, req *MapGeoBroadcastFeedRequest) (MapGeoBroadcastFeedResponse, *Error) {
	rect := geo.Rect{South: req.P1Lat, West: req.P1Lng, North: req.P2Lat, East: req.P2Lng}
	// The map reveals only the top-ranked broadcasts per query; zooming
	// into a smaller area (fewer broadcasts inside) uncovers the rest.
	in := s.Pop.InArea(rect, s.cfg.MapVisibleCap)
	resp := MapGeoBroadcastFeedResponse{Broadcasts: make([]BroadcastDesc, 0, len(in))}
	for _, b := range in {
		resp.Broadcasts = append(resp.Broadcasts, s.desc(b, time.Time{}))
	}
	// The crawler sets include_replay=false "to only discover live
	// broadcasts"; the app's default query also surfaces replays.
	if req.IncludeReplay {
		for _, b := range s.Pop.ReplayableInArea(rect, s.cfg.MapVisibleCap-len(in)) {
			d := s.desc(b, time.Time{})
			d.State = "ENDED"
			resp.Broadcasts = append(resp.Broadcasts, d)
		}
	}
	return resp, nil
}

func (s *Server) getBroadcasts(_ context.Context, req *GetBroadcastsRequest) (GetBroadcastsResponse, *Error) {
	if len(req.BroadcastIDs) > s.cfg.MaxBroadcastIDs {
		return GetBroadcastsResponse{}, Errorf(http.StatusBadRequest, CodeTooManyIDs,
			"too many broadcast_ids: %d > %d", len(req.BroadcastIDs), s.cfg.MaxBroadcastIDs)
	}
	resp := GetBroadcastsResponse{Broadcasts: make([]BroadcastDesc, 0, len(req.BroadcastIDs))}
	now := s.Pop.Now()
	for _, id := range req.BroadcastIDs {
		if b, ok := s.Pop.Get(id); ok {
			resp.Broadcasts = append(resp.Broadcasts, s.desc(b, now))
		}
	}
	return resp, nil
}

func (s *Server) playbackMeta(_ context.Context, req *PlaybackMetaRequest) (PlaybackMetaResponse, *Error) {
	s.metaMu.Lock()
	s.metas = append(s.metas, req.Stats)
	s.metaMu.Unlock()
	return PlaybackMetaResponse{}, nil
}

// PlaybackMetas returns all statistics uploads received so far.
func (s *Server) PlaybackMetas() []PlaybackMeta {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return append([]PlaybackMeta(nil), s.metas...)
}

func (s *Server) accessVideo(_ context.Context, req *AccessVideoRequest) (AccessVideoResponse, *Error) {
	if s.Video == nil {
		return AccessVideoResponse{}, Errorf(http.StatusServiceUnavailable, CodeUnavailable, "video plane not running")
	}
	resp, err := s.Video.AccessVideo(req.BroadcastID)
	if err != nil {
		return AccessVideoResponse{}, Errorf(http.StatusNotFound, CodeNotFound, "%s", err.Error())
	}
	return resp, nil
}

func (s *Server) teleport(_ context.Context, _ *TeleportRequest) (TeleportResponse, *Error) {
	s.rngMu.Lock()
	b := s.Pop.Teleport(s.rng)
	s.rngMu.Unlock()
	if b == nil {
		return TeleportResponse{}, Errorf(http.StatusNotFound, CodeNotFound, "no live broadcasts")
	}
	return TeleportResponse{BroadcastID: b.ID}, nil
}
