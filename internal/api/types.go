// Package api is the typed endpoint gateway for the Periscope-style
// private JSON API of §3, Table 1: POST requests with JSON-encoded
// attributes to /api/v2/<apiRequest>.
//
// Every command is described once by a generic Endpoint[Req, Resp]
// definition (endpoint.go) that names the path, request/response types,
// and request-shape validation. The Server mounts handlers through these
// definitions — the endpoint layer owns decode → validate → handle →
// encode, so handlers are small typed functions — and the Client issues
// calls through the very same definitions, making the wire contract a
// single source of truth.
//
// In front of the endpoints, Server.ServeHTTP runs the same steps in a
// fixed order: panic recovery, POST-method enforcement, per-session
// keying and rate limiting, then dispatch and metrics. Rate limiting is a
// sharded token-bucket table (ratelimit.go): keys hash to independent
// shards so concurrent sessions do not serialize on one lock, and idle
// buckets are evicted so the table stays bounded across long campaigns.
// Over-eager clients get the structured 429 envelope with a Retry-After
// hint — the behaviour that forced the crawler design of §4 — and a
// Client built WithRetry retries with jittered backoff honouring that
// hint.
//
// Errors travel as a structured envelope (errors.go) with a stable code
// ("rate_limited", "too_many_ids", …) and message, decoded back into
// *Error on the client side.
//
// The commands the study relied on are implemented faithfully —
// mapGeoBroadcastFeed (map exploration with partial visibility),
// getBroadcasts (descriptions including viewer counts) and playbackMeta
// (end-of-session QoE statistics) — plus the supporting commands the app
// itself needs (accessVideo for stream URLs and teleport for
// random-broadcast discovery).
package api

import "time"

// BroadcastDesc is the description object returned for a broadcast.
// descriptions.go writes and reads it without reflection, so a field
// added here is added there too (FuzzDescriptionCodec fails until it is).
type BroadcastDesc struct {
	ID                 string  `json:"id"`
	CreatedAt          string  `json:"created_at"` // RFC3339
	State              string  `json:"state"`      // RUNNING | ENDED
	Latitude           float64 `json:"latitude,omitempty"`
	Longitude          float64 `json:"longitude,omitempty"`
	LocationDisclosed  bool    `json:"location_disclosed"`
	AvailableForReplay bool    `json:"available_for_replay"`
	Region             string  `json:"region,omitempty"`
	// NumWatching is only populated by getBroadcasts.
	NumWatching int `json:"n_watching,omitempty"`
}

// StartTime parses the creation timestamp.
func (d BroadcastDesc) StartTime() (time.Time, error) {
	return time.Parse(time.RFC3339Nano, d.CreatedAt)
}

// MapGeoBroadcastFeedRequest queries broadcasts inside a rectangle; the
// crawler replays this request with modified coordinates.
type MapGeoBroadcastFeedRequest struct {
	P1Lat         float64 `json:"p1_lat"` // south
	P1Lng         float64 `json:"p1_lng"` // west
	P2Lat         float64 `json:"p2_lat"` // north
	P2Lng         float64 `json:"p2_lng"` // east
	IncludeReplay bool    `json:"include_replay"`
}

// MapGeoBroadcastFeedResponse lists broadcasts in the queried area.
type MapGeoBroadcastFeedResponse struct {
	Broadcasts []BroadcastDesc `json:"broadcasts"`
}

// GetBroadcastsRequest fetches descriptions for explicit broadcast IDs.
type GetBroadcastsRequest struct {
	BroadcastIDs []string `json:"broadcast_ids"`
}

// GetBroadcastsResponse carries the descriptions (including viewers).
type GetBroadcastsResponse struct {
	Broadcasts []BroadcastDesc `json:"broadcasts"`
}

// PlaybackMeta is the statistics blob the app posts when a viewing session
// ends. For RTMP sessions it includes stall durations and playback delay;
// after an HLS session the app reports only the number of stall events
// (§2) — the HLS-only fields are therefore zero for those sessions.
type PlaybackMeta struct {
	BroadcastID string `json:"broadcast_id"`
	Protocol    string `json:"protocol"` // RTMP | HLS
	// NStallEvents is reported for both protocols.
	NStallEvents int `json:"n_stall_events"`
	// AvgStallSec and PlaybackDelaySec are RTMP-only.
	AvgStallSec      float64 `json:"avg_stall_sec,omitempty"`
	PlaybackDelaySec float64 `json:"playback_delay_sec,omitempty"`
	PlayTimeSec      float64 `json:"play_time_sec"`
	StallTimeSec     float64 `json:"stall_time_sec,omitempty"`
}

// PlaybackMetaRequest wraps the stats upload.
type PlaybackMetaRequest struct {
	Stats PlaybackMeta `json:"stats"`
}

// PlaybackMetaResponse is the (empty) acknowledgement.
type PlaybackMetaResponse struct{}

// AccessVideoRequest asks where to fetch the stream for a broadcast.
type AccessVideoRequest struct {
	BroadcastID string `json:"broadcast_id"`
}

// AccessVideoResponse tells the app which protocol and endpoint to use:
// RTMP from a regional "EC2" server for unpopular casts, HLS from the CDN
// for popular ones (§5).
type AccessVideoResponse struct {
	Protocol   string `json:"protocol"` // RTMP | HLS
	RTMPAddr   string `json:"rtmp_addr,omitempty"`
	RTMPServer string `json:"rtmp_server,omitempty"` // vidman-…  DNS name
	StreamName string `json:"stream_name,omitempty"`
	HLSBaseURL string `json:"hls_base_url,omitempty"`
	ChatURL    string `json:"chat_url,omitempty"`
	// Replay marks a VOD replay of an ended broadcast (§5): the playlist
	// is ENDLIST from the start and live-only UI (chat, hearts) is off.
	Replay bool `json:"replay,omitempty"`
	// NumWatching lets the client log popularity at access time.
	NumWatching int `json:"n_watching"`
}

// TeleportRequest asks for a random live broadcast (the Teleport button);
// it carries no attributes.
type TeleportRequest struct{}

// TeleportResponse returns a random live broadcast id.
type TeleportResponse struct {
	BroadcastID string `json:"broadcast_id"`
}

// ErrorResponse is the JSON error envelope: a stable machine-readable
// code plus the human-readable message (kept in the legacy "error" field
// for compatibility with §3-era clients).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
