package api

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"

	"periscope/internal/geo"
)

// PathPrefix is the API mount point: every Table-1 command is a POST to
// /api/v2/<apiRequest>.
const PathPrefix = "/api/v2/"

// Endpoint is the typed definition of one API command: its wire name and
// the request-shape invariants every caller must satisfy. The server mounts
// handlers through it (decode → validate → handle → encode) and the client
// issues calls through it, so paths, request/response types, and
// validation live in exactly one place.
type Endpoint[Req, Resp any] struct {
	// Name is the <apiRequest> path component, e.g. "getBroadcasts".
	Name string
	// Validate, if set, checks request invariants that do not depend on
	// server configuration. It runs on the server after decode; returning
	// a non-nil *Error short-circuits the handler.
	Validate func(*Req) *Error
}

// Path returns the endpoint's URL path.
func (e Endpoint[Req, Resp]) Path() string { return PathPrefix + e.Name }

// The five §3/Table-1 endpoint definitions — the single source of truth
// shared by Server (mounting) and Client (calling).
var (
	// MapGeoBroadcastFeedEndpoint is the map-exploration query the §4
	// crawler replays with modified coordinates.
	MapGeoBroadcastFeedEndpoint = Endpoint[MapGeoBroadcastFeedRequest, MapGeoBroadcastFeedResponse]{
		Name: "mapGeoBroadcastFeed",
		Validate: func(r *MapGeoBroadcastFeedRequest) *Error {
			rect := geo.Rect{South: r.P1Lat, West: r.P1Lng, North: r.P2Lat, East: r.P2Lng}
			if !rect.Valid() {
				return Errorf(http.StatusBadRequest, CodeInvalidArea, "invalid area")
			}
			return nil
		},
	}

	// GetBroadcastsEndpoint fetches descriptions (with viewer counts) for
	// explicit IDs. The per-request ID cap is server configuration, so it
	// is enforced in the handler, not here.
	GetBroadcastsEndpoint = Endpoint[GetBroadcastsRequest, GetBroadcastsResponse]{
		Name: "getBroadcasts",
	}

	// PlaybackMetaEndpoint uploads end-of-session QoE statistics.
	PlaybackMetaEndpoint = Endpoint[PlaybackMetaRequest, PlaybackMetaResponse]{
		Name: "playbackMeta",
	}

	// AccessVideoEndpoint resolves a broadcast's stream endpoint.
	AccessVideoEndpoint = Endpoint[AccessVideoRequest, AccessVideoResponse]{
		Name: "accessVideo",
		Validate: func(r *AccessVideoRequest) *Error {
			if r.BroadcastID == "" {
				return Errorf(http.StatusBadRequest, CodeBadRequest, "broadcast_id required")
			}
			return nil
		},
	}

	// TeleportEndpoint returns a random live broadcast id.
	TeleportEndpoint = Endpoint[TeleportRequest, TeleportResponse]{
		Name: "teleport",
	}
)

// maxRequestBody bounds a request body at ≈ 28× the largest legitimate
// one, a getBroadcasts of 100 ids (≈ 2.3 KB of JSON).
const maxRequestBody = 64 << 10

// route is one mounted endpoint: serve decodes, validates, handles and
// answers a request and returns the status it wrote, and the counters are
// the endpoint's own. The route table is built once at server
// construction and never mutated, so lookups are lock-free map reads.
type route struct {
	serve    func(w http.ResponseWriter, r *http.Request) int
	requests atomic.Int64
	errors   atomic.Int64 // answers with status >= 400
}

// mount builds the route of a typed handler for an endpoint. The route
// owns the whole decode → validate → handle → encode cycle; handlers see
// only their typed request and return a typed response or a structured
// error. A body past maxRequestBody is refused with a 413 before any of it
// is decoded further.
func mount[Req, Resp any](ep Endpoint[Req, Resp], fn func(*Req) (Resp, *Error)) *route {
	return &route{serve: func(w http.ResponseWriter, r *http.Request) int {
		var req Req
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req)
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			return writeError(w, Errorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "request body over %d bytes", maxRequestBody))
		case err != nil && !errors.Is(err, io.EOF):
			return writeError(w, Errorf(http.StatusBadRequest, CodeBadRequest, "bad JSON: %v", err))
		}
		if ep.Validate != nil {
			if e := ep.Validate(&req); e != nil {
				return writeError(w, e)
			}
		}
		resp, apiErr := fn(&req)
		if apiErr != nil {
			return writeError(w, apiErr)
		}
		return writeBody(w, http.StatusOK, resp)
	}}
}
