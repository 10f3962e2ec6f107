package hls

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestResolveKeepsStatusAndKind covers the renderer over a replica: the
// three fill-error mappings keep their status on the wire, every file
// name is classified once, and a 200 is length-framed.
func TestResolveKeepsStatusAndKind(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(1, 2))
	src.setSegment(1, []byte("segment-one"))
	src.setSegErr(3, &UpstreamError{Status: http.StatusInternalServerError})
	src.setSegErr(4, ErrBreakerOpen)
	rep := NewReplica(ReplicaConfig{
		Source: src, FillAttempts: 1, TargetDuration: time.Second,
	})
	defer rep.Close()
	srv := httptest.NewServer(rep)
	defer srv.Close()

	for _, tc := range []struct {
		file              string
		status            int
		playlist, segment bool
	}{
		{"playlist.m3u8", http.StatusOK, true, false},
		{"seg000001.ts", http.StatusOK, false, true},
		{"seg000002.ts", http.StatusNotFound, false, true},           // upstream 404 passes through
		{"seg000003.ts", http.StatusBadGateway, false, true},         // upstream failure
		{"seg000004.ts", http.StatusServiceUnavailable, false, true}, // open breaker
		{"seg-00001.ts", http.StatusBadRequest, false, false},        // malformed segment name
		{"favicon.ico", http.StatusNotFound, false, false},           // stranger
	} {
		res := Resolve(httptest.NewRequest(http.MethodGet, "/any/prefix/"+tc.file, nil), rep, false)
		if res.Status != tc.status || res.Playlist != tc.playlist || res.Segment != tc.segment {
			t.Errorf("%s: resolved status %d playlist %v segment %v, want %d %v %v",
				tc.file, res.Status, res.Playlist, res.Segment, tc.status, tc.playlist, tc.segment)
		}
		if (res.Body != nil) != (tc.status == http.StatusOK) {
			t.Errorf("%s: body present = %v with status %d", tc.file, res.Body != nil, res.Status)
		}

		resp, err := http.Get(srv.URL + "/hls/cast/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: wire status %d, want %d", tc.file, resp.StatusCode, tc.status)
		}
		if tc.status == http.StatusOK && (resp.ContentLength != int64(len(body)) || string(body) != string(res.Body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", tc.file, resp.ContentLength, len(body))
		}
	}
}

// TestResolveCacheOnly pins the peer protocol: segments only, and only
// from cache — a miss is a 404 that never reaches upstream.
func TestResolveCacheOnly(t *testing.T) {
	src := newFakeSource()
	src.setPlaylist(livePlaylist(1, 2))
	src.setSegment(1, []byte("segment-one"))
	src.setSegment(2, []byte("segment-two"))
	rep := NewReplica(ReplicaConfig{Source: src})
	get := func(file string, cacheOnly bool) Response {
		return Resolve(httptest.NewRequest(http.MethodGet, "/peer/cast/"+file, nil), rep, cacheOnly)
	}
	if res := get("seg000001.ts", false); res.Status != http.StatusOK {
		t.Fatalf("demand fill status %d", res.Status)
	}
	fetches := src.segmentFetches.Load()

	if res := get("seg000001.ts", true); res.Status != http.StatusOK || !res.Segment || string(res.Body) != "segment-one" {
		t.Errorf("cached segment: status %d body %q", res.Status, res.Body)
	}
	if res := get("seg000002.ts", true); res.Status != http.StatusNotFound || !res.Segment || res.Body != nil {
		t.Errorf("uncached segment: status %d, want 404 and no body", res.Status)
	}
	for _, file := range []string{"playlist.m3u8", "favicon.ico", "seg-1.ts"} {
		if res := get(file, true); res.Status != http.StatusBadRequest || res.Playlist || res.Segment {
			t.Errorf("%s over the peer protocol: status %d, want 400 and no kind", file, res.Status)
		}
	}
	if got := src.segmentFetches.Load() - fetches; got != 0 || src.playlistFetches.Load() != 0 {
		t.Errorf("cache-only resolves reached upstream: %d segment, %d playlist fetches", got, src.playlistFetches.Load())
	}
}
