package api

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
)

type stubVideo struct{}

func (stubVideo) AccessVideo(id string) (AccessVideoResponse, error) {
	if id == "missing" {
		return AccessVideoResponse{}, errors.New("no such broadcast")
	}
	return AccessVideoResponse{Protocol: "RTMP", RTMPAddr: "127.0.0.1:1935", StreamName: id}, nil
}

func newTestServer(t *testing.T, rateLimit float64) (*Server, *Client, *broadcastmodel.Population) {
	t.Helper()
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 400
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = rateLimit
	srv := NewServer(pop, stubVideo{}, scfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL, "sess-1", nil), pop
}

func TestMapGeoReturnsCappedList(t *testing.T) {
	_, c, _ := newTestServer(t, 0)
	resp, err := c.MapGeoBroadcastFeed(MapGeoBroadcastFeedRequest{
		P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Broadcasts) == 0 {
		t.Fatal("no broadcasts in world query")
	}
	if len(resp.Broadcasts) > 50 {
		t.Errorf("cap violated: %d", len(resp.Broadcasts))
	}
}

func TestZoomRevealsMore(t *testing.T) {
	// The defining crawler observation: querying the four quadrants of an
	// area yields at least as many distinct broadcasts as the single
	// coarse query, usually more.
	_, c, _ := newTestServer(t, 0)
	world, err := c.MapGeoBroadcastFeed(MapGeoBroadcastFeedRequest{
		P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	quads := []MapGeoBroadcastFeedRequest{
		{P1Lat: -90, P1Lng: -180, P2Lat: 0, P2Lng: 0},
		{P1Lat: -90, P1Lng: 0, P2Lat: 0, P2Lng: 180},
		{P1Lat: 0, P1Lng: -180, P2Lat: 90, P2Lng: 0},
		{P1Lat: 0, P1Lng: 0, P2Lat: 90, P2Lng: 180},
	}
	for _, q := range quads {
		resp, err := c.MapGeoBroadcastFeed(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range resp.Broadcasts {
			seen[b.ID] = true
		}
	}
	if len(seen) < len(world.Broadcasts) {
		t.Errorf("zoom found %d < coarse %d", len(seen), len(world.Broadcasts))
	}
}

func TestGetBroadcastsViewers(t *testing.T) {
	_, c, pop := newTestServer(t, 0)
	var ids []string
	for _, b := range pop.Live() {
		ids = append(ids, b.ID)
		if len(ids) == 20 {
			break
		}
	}
	resp, err := c.GetBroadcasts(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Broadcasts) != 20 {
		t.Fatalf("got %d descriptions", len(resp.Broadcasts))
	}
	for _, d := range resp.Broadcasts {
		if d.State != "RUNNING" {
			t.Errorf("state = %s", d.State)
		}
		if _, err := d.StartTime(); err != nil {
			t.Errorf("bad created_at: %v", err)
		}
	}
}

func TestGetBroadcastsUnknownIDsSkipped(t *testing.T) {
	_, c, _ := newTestServer(t, 0)
	resp, err := c.GetBroadcasts([]string{"doesnotexist42"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Broadcasts) != 0 {
		t.Errorf("got %d, want 0", len(resp.Broadcasts))
	}
}

// paddedGetBroadcasts is a getBroadcasts body carrying a field the server
// ignores, to size a request past any legitimate one.
type paddedGetBroadcasts struct {
	GetBroadcastsRequest
	Pad string `json:"pad"`
}

// TestOversizedBodyIsRefused: a getBroadcasts at the id cap is answered,
// the same request padded to 4 MiB is refused with a 413 in the error
// envelope instead of being read whole.
func TestOversizedBodyIsRefused(t *testing.T) {
	_, c, pop := newTestServer(t, 0)
	var ids []string
	for _, b := range pop.Live() {
		if ids = append(ids, b.ID); len(ids) == maxBroadcastIDs {
			break
		}
	}
	ep := Endpoint[paddedGetBroadcasts, GetBroadcastsResponse]{Name: GetBroadcastsEndpoint.Name}
	req := paddedGetBroadcasts{GetBroadcastsRequest: GetBroadcastsRequest{BroadcastIDs: ids}}
	if resp, err := Call(c, ep, req); err != nil || len(resp.Broadcasts) != len(ids) {
		t.Fatalf("getBroadcasts of %d ids: %d descriptions, %v", len(ids), len(resp.Broadcasts), err)
	}
	req.Pad = strings.Repeat("x", 4<<20)
	_, err := Call(c, ep, req)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusRequestEntityTooLarge {
		t.Fatalf("4 MiB getBroadcasts body: %v, want a 413 *api.Error", err)
	}
}

// TestAnswersAreLengthFramed: a capped world mapGeo (≈ 7 KB, past
// net/http's 2 KB response buffer) and a 413 envelope both go out with a
// Content-Length that matches the body, never chunked.
func TestAnswersAreLengthFramed(t *testing.T) {
	srv, _, _ := newTestServer(t, 0)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	post := func(name, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+PathPrefix+name, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(b)) {
			t.Errorf("%s: Transfer-Encoding %v, Content-Length %d for a %d-byte body",
				name, resp.TransferEncoding, resp.ContentLength, len(b))
		}
		return resp, b
	}

	resp, body := post(MapGeoBroadcastFeedEndpoint.Name, `{"p1_lat":-90,"p1_lng":-180,"p2_lat":90,"p2_lng":180}`)
	var feed MapGeoBroadcastFeedResponse
	if err := json.Unmarshal(body, &feed); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("world mapGeo: status %d, %v", resp.StatusCode, err)
	}
	if len(feed.Broadcasts) != mapVisibleCap || len(body) < 4<<10 {
		t.Errorf("world mapGeo: %d broadcasts in %d bytes, want a full %d-result answer",
			len(feed.Broadcasts), len(body), mapVisibleCap)
	}

	resp, body = post(GetBroadcastsEndpoint.Name, `{"pad":"`+strings.Repeat("x", maxRequestBody)+`"}`)
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || env.Code != CodeTooLarge {
		t.Errorf("oversized body: status %d, envelope %+v, %v", resp.StatusCode, env, err)
	}
}

func TestRateLimiting429(t *testing.T) {
	_, c, _ := newTestServer(t, 2) // 2 rps, burst 6
	var rateLimited bool
	for i := 0; i < 20; i++ {
		_, err := c.Teleport()
		if errors.As(err, &ErrRateLimited{}) {
			rateLimited = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rateLimited {
		t.Error("burst of 20 requests never hit 429")
	}
	if c.RateLimited() == 0 {
		t.Error("client did not count 429s")
	}
}

func TestRateLimitPerSession(t *testing.T) {
	// Different session tokens have independent buckets — the 4-crawler
	// trick from §4.
	srv, c1, pop := newTestServer(t, 1)
	_ = srv
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c2 := NewClient(hs.URL, "sess-2", nil)
	_ = pop
	// Exhaust c1's budget.
	for i := 0; i < 15; i++ {
		c1.Teleport()
	}
	if _, err := c2.Teleport(); err != nil {
		t.Errorf("fresh session should not be limited: %v", err)
	}
}

func TestPlaybackMetaStored(t *testing.T) {
	srv, c, _ := newTestServer(t, 0)
	stats := PlaybackMeta{
		BroadcastID: "abc", Protocol: "RTMP",
		NStallEvents: 2, AvgStallSec: 3.5, PlaybackDelaySec: 2.1,
		PlayTimeSec: 52.9, StallTimeSec: 7.0,
	}
	if err := c.PlaybackMeta(stats); err != nil {
		t.Fatal(err)
	}
	got := srv.PlaybackMetas()
	if len(got) != 1 || got[0] != stats {
		t.Errorf("stored = %+v", got)
	}
}

func TestAccessVideo(t *testing.T) {
	_, c, _ := newTestServer(t, 0)
	resp, err := c.AccessVideo("someid")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Protocol != "RTMP" || resp.StreamName != "someid" {
		t.Errorf("resp = %+v", resp)
	}
	if _, err := c.AccessVideo("missing"); err == nil {
		t.Error("want error for missing broadcast")
	}
}

func TestTeleportReturnsLiveID(t *testing.T) {
	_, c, pop := newTestServer(t, 0)
	id, err := c.Teleport()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pop.Get(id); !ok {
		t.Errorf("teleport returned unknown id %q", id)
	}
}

func TestInvalidArea(t *testing.T) {
	_, c, _ := newTestServer(t, 0)
	_, err := c.MapGeoBroadcastFeed(MapGeoBroadcastFeedRequest{P1Lat: 50, P1Lng: 0, P2Lat: 10, P2Lng: 10})
	if err == nil {
		t.Error("want error for inverted rectangle")
	}
}

func TestGETRejected(t *testing.T) {
	srv, _, _ := newTestServer(t, 0)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/api/v2/teleport")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

// TestEndAtRacesDescriptions: rescheduling a broadcast's end while the API
// describes it — through getBroadcasts and through a *Broadcast a reader
// already holds — is race-free: a published Broadcast is never written.
func TestEndAtRacesDescriptions(t *testing.T) {
	srv, _, pop := newTestServer(t, 0)
	b := pop.Live()[0]
	req := &GetBroadcastsRequest{BroadcastIDs: []string{b.ID}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			pop.EndAt(b.ID, pop.Now().Add(time.Duration(i+1)*time.Hour))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if resp, err := srv.getBroadcasts(req); err != nil || len(resp.Broadcasts) != 1 {
				t.Errorf("getBroadcasts = %+v, %v; want the live broadcast", resp, err)
				return
			}
			b.ViewersAt(pop.Now())
		}
	}()
	wg.Wait()
	if got, _ := pop.Get(b.ID); !got.End.Equal(pop.Now().Add(200 * time.Hour)) {
		t.Errorf("End = %v after the last EndAt, want %v", got.End, pop.Now().Add(200*time.Hour))
	}
}
