package api

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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

// mapVisibleCap bounds how many broadcasts one mapGeoBroadcastFeed
// answer reveals — the reason zooming in uncovers more broadcasts and the
// deep crawl must recurse.
const mapVisibleCap = 50

// maxBroadcastIDs caps the ids one getBroadcasts request may carry;
// longer lists get a too_many_ids error.
const maxBroadcastIDs = 100

// ServerConfig tunes the API gateway.
type ServerConfig struct {
	// RateLimit is the sustained per-session request rate; Burst the
	// bucket depth. Zero rate disables limiting.
	RateLimit float64
	Burst     float64
	// Seed drives the teleport randomness.
	Seed int64
}

// DefaultServerConfig mirrors observed service behaviour.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{RateLimit: 2, Burst: 6, Seed: 1}
}

// Server is the Periscope-style API gateway: the five Table-1 endpoints,
// each mounted from its typed definition, behind one handler that
// recovers panics, refuses anything but POST, rate-limits each session
// and counts what reaches the endpoints.
type Server struct {
	Pop     *broadcastmodel.Population
	Video   VideoAccessProvider
	limiter *RateLimiter // nil when limiting is off
	routes  map[string]*route
	rngMu   sync.Mutex
	rng     *rand.Rand
	metaMu  sync.Mutex
	metas   []PlaybackMeta

	// The gateway's counters; each route counts its own requests and
	// errors besides.
	requests, errors, rateLimited, panics atomic.Int64
}

// NewServer wires the API over a population. video may be nil (accessVideo
// then returns 503), letting usage-pattern studies run without the media
// plane.
func NewServer(pop *broadcastmodel.Population, video VideoAccessProvider, cfg ServerConfig) *Server {
	s := &Server{
		Pop:   pop,
		Video: video,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.RateLimit > 0 {
		s.limiter = NewRateLimiter(cfg.RateLimit, cfg.Burst)
		s.limiter.SetNowFunc(func() time.Time { return pop.Now() })
	}
	s.routes = map[string]*route{
		MapGeoBroadcastFeedEndpoint.Path(): mount(MapGeoBroadcastFeedEndpoint, s.mapGeo),
		GetBroadcastsEndpoint.Path():       mount(GetBroadcastsEndpoint, s.getBroadcasts),
		PlaybackMetaEndpoint.Path():        mount(PlaybackMetaEndpoint, s.playbackMeta),
		AccessVideoEndpoint.Path():         mount(AccessVideoEndpoint, s.accessVideo),
		TeleportEndpoint.Path():            mount(TeleportEndpoint, s.teleport),
	}
	return s
}

// ServeHTTP runs the gateway's five steps in a fixed order. A panic in
// any later step is answered with the 500 envelope and counted. Anything
// but POST is refused: the whole §3 API is POST-with-JSON-body. A call to
// an API path is charged to its session (the X-Periscope-Session token,
// or the remote address for anonymous callers), and one over budget is
// answered with the 429 envelope and a Retry-After hint before any
// endpoint runs; a path outside /api/v2/ drains no budget. What is left
// is counted as a request, dispatched to its endpoint, and counted as an
// error when the answer's status is 400 or above.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			writeError(w, Errorf(http.StatusInternalServerError, CodeInternal, "internal error"))
		}
	}()
	if r.Method != http.MethodPost {
		writeError(w, Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required"))
		return
	}
	if s.limiter != nil && strings.HasPrefix(r.URL.Path, PathPrefix) {
		key := r.Header.Get(SessionHeader)
		if key == "" {
			key = r.RemoteAddr
		}
		if ok, retryAfter := s.limiter.Take(key); !ok {
			s.rateLimited.Add(1)
			e := Errorf(http.StatusTooManyRequests, CodeRateLimited, "Too many requests")
			e.RetryAfter = retryAfter
			writeError(w, e)
			return
		}
	}
	s.requests.Add(1)
	rt := s.routes[r.URL.Path]
	if rt == nil {
		s.errors.Add(1)
		http.NotFound(w, r)
		return
	}
	rt.requests.Add(1)
	if rt.serve(w, r) >= 400 {
		s.errors.Add(1)
		rt.errors.Add(1)
	}
}

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

func (s *Server) mapGeo(req *MapGeoBroadcastFeedRequest) (MapGeoBroadcastFeedResponse, *Error) {
	rect := geo.Rect{South: req.P1Lat, West: req.P1Lng, North: req.P2Lat, East: req.P2Lng}
	// The map reveals only the top-ranked broadcasts per query; zooming
	// into a smaller area (fewer broadcasts inside) uncovers the rest.
	in := s.Pop.InArea(rect, mapVisibleCap)
	resp := MapGeoBroadcastFeedResponse{Broadcasts: make([]BroadcastDesc, 0, len(in))}
	for _, b := range in {
		resp.Broadcasts = append(resp.Broadcasts, s.desc(b, time.Time{}))
	}
	// The crawler sets include_replay=false "to only discover live
	// broadcasts"; the app's default query also surfaces replays.
	if req.IncludeReplay {
		for _, b := range s.Pop.ReplayableInArea(rect, mapVisibleCap-len(in)) {
			d := s.desc(b, time.Time{})
			d.State = "ENDED"
			resp.Broadcasts = append(resp.Broadcasts, d)
		}
	}
	return resp, nil
}

func (s *Server) getBroadcasts(req *GetBroadcastsRequest) (GetBroadcastsResponse, *Error) {
	if len(req.BroadcastIDs) > maxBroadcastIDs {
		return GetBroadcastsResponse{}, Errorf(http.StatusBadRequest, CodeTooManyIDs,
			"too many broadcast_ids: %d > %d", len(req.BroadcastIDs), maxBroadcastIDs)
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

func (s *Server) playbackMeta(req *PlaybackMetaRequest) (PlaybackMetaResponse, *Error) {
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

func (s *Server) accessVideo(req *AccessVideoRequest) (AccessVideoResponse, *Error) {
	if s.Video == nil {
		return AccessVideoResponse{}, Errorf(http.StatusServiceUnavailable, CodeUnavailable, "video plane not running")
	}
	resp, err := s.Video.AccessVideo(req.BroadcastID)
	if err != nil {
		return AccessVideoResponse{}, Errorf(http.StatusNotFound, CodeNotFound, "%s", err.Error())
	}
	return resp, nil
}

func (s *Server) teleport(_ *TeleportRequest) (TeleportResponse, *Error) {
	s.rngMu.Lock()
	b := s.Pop.Teleport(s.rng)
	s.rngMu.Unlock()
	if b == nil {
		return TeleportResponse{}, Errorf(http.StatusNotFound, CodeNotFound, "no live broadcasts")
	}
	return TeleportResponse{BroadcastID: b.ID}, nil
}
