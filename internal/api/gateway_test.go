package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
)

// --- structured error envelope ---

func TestStructuredErrorCodes(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = 0
	srv := NewServer(pop, stubVideo{}, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "sess", nil)

	// Invalid area → invalid_area from the endpoint's Validate.
	_, err := c.MapGeoBroadcastFeed(MapGeoBroadcastFeedRequest{P1Lat: 50, P1Lng: 0, P2Lat: 10, P2Lng: 10})
	assertCode(t, err, CodeInvalidArea, http.StatusBadRequest)

	// An ID list past the cap → too_many_ids from the handler.
	ids := make([]string, maxBroadcastIDs+1)
	for i := range ids {
		ids[i] = "id" + strconv.Itoa(i)
	}
	_, err = c.GetBroadcasts(ids)
	assertCode(t, err, CodeTooManyIDs, http.StatusBadRequest)

	// A capped list of unknown IDs is fine (skipped, not an error).
	if _, err := c.GetBroadcasts(ids[:maxBroadcastIDs]); err != nil {
		t.Errorf("%d ids within cap: %v", maxBroadcastIDs, err)
	}

	// Missing broadcast → not_found.
	_, err = c.AccessVideo("missing")
	assertCode(t, err, CodeNotFound, http.StatusNotFound)

	// Empty broadcast_id → bad_request from the endpoint's Validate.
	_, err = c.AccessVideo("")
	assertCode(t, err, CodeBadRequest, http.StatusBadRequest)

	// Malformed JSON body → bad_request from the decode layer.
	resp, err := hs.Client().Post(hs.URL+"/api/v2/teleport", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

func assertCode(t *testing.T, err error, code string, status int) {
	t.Helper()
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Errorf("want *Error with code %s, got %v", code, err)
		return
	}
	if apiErr.Code != code || apiErr.HTTPStatus != status {
		t.Errorf("got code=%s status=%d, want %s/%d", apiErr.Code, apiErr.HTTPStatus, code, status)
	}
}

// --- 429 end-to-end: Retry-After emitted, client backs off and succeeds ---

func TestRateLimit429EndToEnd(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = 1
	scfg.Burst = 2
	srv := NewServer(pop, nil, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)

	// First verify the raw 429 carries the Retry-After header.
	raw := NewClient(hs.URL, "raw-sess", nil)
	var sawRetryAfter time.Duration
	for i := 0; i < 10; i++ {
		_, err := raw.Teleport()
		var rl ErrRateLimited
		if errors.As(err, &rl) {
			sawRetryAfter = rl.RetryAfter
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if sawRetryAfter <= 0 {
		t.Fatal("429 did not carry a positive Retry-After")
	}

	// Now a retrying client: its Sleep hook advances the population's
	// virtual clock (the limiter's clock), so each backoff refills the
	// bucket and every call must eventually succeed within the attempt
	// budget.
	c := NewClient(hs.URL, "retry-sess", nil).WithRetry()
	var slept []time.Duration
	c.Sleep = func(d time.Duration) {
		slept = append(slept, d)
		pop.Advance(d)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Teleport(); err != nil {
			t.Fatalf("call %d failed despite retry budget: %v", i, err)
		}
	}
	if c.RateLimited() == 0 {
		t.Error("client never saw a 429 — limiter not exercised")
	}
	if len(slept) == 0 {
		t.Fatal("client never backed off")
	}
	// Backoff must honour the server hint: with rate 1/s the hint is 1s,
	// so every sleep after a 429 must be at least that.
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("sleep %d = %v, shorter than the 1s Retry-After hint", i, d)
		}
	}
	if got := srv.Metrics().RateLimited; got == 0 {
		t.Error("server metrics did not count 429s")
	}
}

type panicVideo struct{ calls atomic.Int64 }

func (p *panicVideo) AccessVideo(id string) (AccessVideoResponse, error) {
	p.calls.Add(1)
	panic("video plane exploded")
}

// TestRecoveryOutermost asserts a handler panic is converted into the
// structured 500 envelope and the server keeps serving.
func TestRecoveryOutermost(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = 0
	srv := NewServer(pop, &panicVideo{}, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "sess", nil)

	_, err := c.AccessVideo("boom")
	assertCode(t, err, CodeInternal, http.StatusInternalServerError)
	if got := srv.Metrics().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	// The gateway survived the panic.
	if _, err := c.Teleport(); err != nil {
		t.Errorf("server dead after panic: %v", err)
	}
}

type countingVideo struct{ calls atomic.Int64 }

func (v *countingVideo) AccessVideo(id string) (AccessVideoResponse, error) {
	v.calls.Add(1)
	return AccessVideoResponse{Protocol: "RTMP", StreamName: id}, nil
}

// TestRateLimitBeforeHandler asserts a 429 is decided before the handler
// runs: a limited request must not reach the video provider.
func TestRateLimitBeforeHandler(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	video := &countingVideo{}
	scfg := DefaultServerConfig()
	scfg.RateLimit = 0.001 // effectively no refill within the test
	scfg.Burst = 1
	srv := NewServer(pop, video, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "sess", nil)

	if _, err := c.AccessVideo("someid"); err != nil {
		t.Fatal(err)
	}
	_, err := c.AccessVideo("someid")
	var rl ErrRateLimited
	if !errors.As(err, &rl) {
		t.Fatalf("second call: want ErrRateLimited, got %v", err)
	}
	if got := video.calls.Load(); got != 1 {
		t.Errorf("handler ran %d times; the rate-limited request reached it", got)
	}
}

// --- metrics ---

func TestMetricsPerEndpoint(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = 0
	srv := NewServer(pop, stubVideo{}, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "sess", nil)

	c.Teleport()
	c.Teleport()
	c.AccessVideo("missing") // 404 → error counted
	m := srv.Metrics()
	if m.PerEndpoint["teleport"].Requests != 2 {
		t.Errorf("teleport requests = %d, want 2", m.PerEndpoint["teleport"].Requests)
	}
	if m.PerEndpoint["accessVideo"].Errors != 1 {
		t.Errorf("accessVideo errors = %d, want 1", m.PerEndpoint["accessVideo"].Errors)
	}
	if m.Requests != 3 {
		t.Errorf("total requests = %d, want 3", m.Requests)
	}
}

// outcomeVideo answers like stubVideo and panics for the id "panic".
type outcomeVideo struct{ stubVideo }

func (v outcomeVideo) AccessVideo(id string) (AccessVideoResponse, error) {
	if id == "panic" {
		panic("video plane exploded")
	}
	return v.stubVideo.AccessVideo(id)
}

// TestGatewayOutcomes sends one request of every outcome class through
// the gateway, each under its own session unless it is meant to find one
// drained: the status, the envelope's code and Retry-After of each, then
// every counter of the gateway after the whole sequence. A panic counts
// as a request but not as an error; a 405 and a 429 are refused before
// the request is counted; a stray path is a counted 404 from outside the
// envelope vocabulary.
func TestGatewayOutcomes(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit, scfg.Burst = 1, 1 // one request per session: the population clock stands still
	srv := NewServer(pop, outcomeVideo{}, scfg)

	ids := func(n int) string {
		return `{"broadcast_ids":["` + strings.Repeat(`x","`, n-1) + `x"]}`
	}
	world := `{"p1_lat":-90,"p1_lng":-180,"p2_lat":90,"p2_lng":180}`
	for _, tc := range []struct {
		name, method, path, session, body string
		noVideo                           bool
		status                            int
		code, retryAfter                  string
	}{
		{name: "mapGeo", path: "mapGeoBroadcastFeed", body: world, status: http.StatusOK},
		{name: "getBroadcasts", path: "getBroadcasts", body: ids(3), status: http.StatusOK},
		{name: "playbackMeta", path: "playbackMeta", body: `{"stats":{"broadcast_id":"a","protocol":"HLS"}}`, status: http.StatusOK},
		{name: "accessVideo", path: "accessVideo", body: `{"broadcast_id":"b"}`, status: http.StatusOK},
		{name: "teleport", path: "teleport", body: `{}`, status: http.StatusOK},
		{name: "bad JSON", path: "teleport", body: `{not json`, status: http.StatusBadRequest, code: CodeBadRequest},
		{name: "body over 64 KiB", path: "getBroadcasts", body: `{"pad":"` + strings.Repeat("x", maxRequestBody) + `"}`,
			status: http.StatusRequestEntityTooLarge, code: CodeTooLarge},
		{name: "invalid area", path: "mapGeoBroadcastFeed", body: `{"p1_lat":50,"p1_lng":0,"p2_lat":10,"p2_lng":10}`,
			status: http.StatusBadRequest, code: CodeInvalidArea},
		{name: "101 ids", path: "getBroadcasts", body: ids(101), status: http.StatusBadRequest, code: CodeTooManyIDs},
		{name: "unknown broadcast", path: "accessVideo", body: `{"broadcast_id":"missing"}`, status: http.StatusNotFound, code: CodeNotFound},
		{name: "nil video plane", path: "accessVideo", body: `{"broadcast_id":"b"}`, noVideo: true,
			status: http.StatusServiceUnavailable, code: CodeUnavailable},
		{name: "handler panic", path: "accessVideo", body: `{"broadcast_id":"panic"}`, status: http.StatusInternalServerError, code: CodeInternal},
		{name: "GET", method: http.MethodGet, path: "teleport", status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed},
		{name: "rate limited", path: "teleport", session: "teleport", body: `{}`,
			status: http.StatusTooManyRequests, code: CodeRateLimited, retryAfter: "1"},
		{name: "stray path inside the API", path: "nope", body: `{}`, status: http.StatusNotFound},
		{name: "stray path outside the API", path: "/nope", body: `{}`, status: http.StatusNotFound},
	} {
		method, path, session := tc.method, tc.path, tc.session
		if method == "" {
			method = http.MethodPost
		}
		if !strings.HasPrefix(path, "/") {
			path = PathPrefix + path
		}
		if session == "" {
			session = tc.name
		}
		req := httptest.NewRequest(method, path, strings.NewReader(tc.body))
		req.Header.Set(SessionHeader, session)
		srv.Video = outcomeVideo{}
		if tc.noVideo {
			srv.Video = nil
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		var env ErrorResponse
		if rec.Code != http.StatusOK {
			json.Unmarshal(rec.Body.Bytes(), &env)
		}
		if rec.Code != tc.status || env.Code != tc.code {
			t.Errorf("%s: status %d, code %q; want %d, %q", tc.name, rec.Code, env.Code, tc.status, tc.code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, got, tc.retryAfter)
		}
	}

	want := MetricsSnapshot{
		Requests:    14,
		Errors:      8,
		RateLimited: 1,
		Panics:      1,
		PerEndpoint: map[string]EndpointSnapshot{
			"mapGeoBroadcastFeed": {Requests: 2, Errors: 1},
			"getBroadcasts":       {Requests: 3, Errors: 2},
			"playbackMeta":        {Requests: 1},
			"accessVideo":         {Requests: 4, Errors: 2},
			"teleport":            {Requests: 2, Errors: 1},
		},
	}
	if got := srv.Metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics after the sequence:\n got %+v\nwant %+v", got, want)
	}
}
