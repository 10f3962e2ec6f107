package hls

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Response is one HLS answer, resolved but not yet written. Every body
// served here — origin, edge replica, peer probe — is one complete []byte,
// so a tier counts kind and length from Response before Write frames it.
type Response struct {
	// Playlist and Segment say what the file name asked for, whatever the
	// status; a stranger (404) or malformed segment name (400) is neither.
	Playlist, Segment bool
	// Status is the HTTP status; Body the complete 200 body, nil otherwise.
	Status int
	Body   []byte

	final  bool   // the playlist carries #EXT-X-ENDLIST
	errMsg string // the non-200 body
}

// content is what Resolve answers from: an *Origin or a *Replica.
type content interface {
	playlistBody(req *http.Request) (raw []byte, final bool, err error)
	// segmentBody with cacheOnly must not fetch: a miss is a 404.
	segmentBody(ctx context.Context, seq int, cacheOnly bool) ([]byte, error)
}

// Resolve classifies the request's file name ("playlist.m3u8" or
// "segNNNNNN.ts", any prefix) and looks the body up in src. cacheOnly is
// the peer-fill protocol: segments only, and only those src already holds
// — a probe that filled would cascade cold segments through the mesh.
func Resolve(req *http.Request, src content, cacheOnly bool) Response {
	path := req.URL.Path
	base := path[strings.LastIndexByte(path, '/')+1:]
	res := Response{Status: http.StatusOK}
	var err error
	switch {
	case base == "playlist.m3u8" && !cacheOnly:
		res.Playlist = true
		if res.Body, res.final, err = src.playlistBody(req); err == errBadAfter {
			return Response{Status: http.StatusBadRequest, errMsg: err.Error()}
		}
	case strings.HasPrefix(base, "seg") && strings.HasSuffix(base, ".ts"):
		seq, perr := ParseSegmentName(base)
		if perr != nil {
			return Response{Status: http.StatusBadRequest, errMsg: "bad segment name"}
		}
		res.Segment = true
		res.Body, err = src.segmentBody(req.Context(), seq, cacheOnly)
	case cacheOnly:
		// Peers only exchange segments; playlists are origin-only.
		return Response{Status: http.StatusBadRequest, errMsg: "peer protocol serves segments only"}
	default:
		return Response{Status: http.StatusNotFound, errMsg: "404 page not found"}
	}
	if err != nil {
		res.Body = nil
		res.Status, res.errMsg = upstreamStatus(err)
	}
	return res
}

// Write sends the response: the one place an HLS body and its headers are
// written. Content-Length is explicit because the length is known — the
// hop carries a complete immutable object, not a chunk-encoded stream.
func (res Response) Write(w http.ResponseWriter) {
	if res.Status != http.StatusOK {
		http.Error(w, res.errMsg, res.Status)
		return
	}
	ctype, cache := "video/MP2T", "max-age=3600"
	if res.Playlist {
		ctype, cache = "application/vnd.apple.mpegurl", "max-age=1"
		if res.final {
			// A finished broadcast's playlist is final (#EXT-X-ENDLIST):
			// edges may cache it indefinitely and stop revalidating.
			cache = "max-age=86400, immutable"
		}
	}
	// One backing array for the three values (the keys are canonical
	// already): three Sets would be three allocations on every GET.
	vals := []string{ctype, cache, strconv.Itoa(len(res.Body))}
	h := w.Header()
	h["Content-Type"], h["Cache-Control"], h["Content-Length"] = vals[0:1:1], vals[1:2:2], vals[2:3:3]
	w.Write(res.Body)
}

// upstreamStatus maps a fill error onto the response: origin 404s (expired
// or unknown) pass through, an open breaker is a 503 (the edge knows its
// upstream is down and wants the viewer to fail over rather than retry
// here), everything else is a bad gateway.
func upstreamStatus(err error) (int, string) {
	if ue, ok := err.(*UpstreamError); ok && ue.Status == http.StatusNotFound {
		return http.StatusNotFound, "segment or playlist not at origin"
	}
	if errors.Is(err, ErrBreakerOpen) {
		return http.StatusServiceUnavailable, "upstream circuit open"
	}
	return http.StatusBadGateway, "origin fill failed"
}

// Origin serves a Segmenter's playlist and segments over HTTP. The service
// layer mounts one Origin per popular broadcast behind its CDN nodes.
type Origin struct {
	Seg *Segmenter
	// Stop, once closed, ends every held fill request (the serving
	// endpoint is shutting down); Held gauges the ones held right now.
	Stop <-chan struct{}
	Held atomic.Int64
}

// ServeHTTP handles "playlist.m3u8" and "segNNNNNN.ts" paths (any prefix).
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	Resolve(r, o, false).Write(w)
}

// holdCap bounds one held fill request: a cut is due every target
// duration, and the longest keyframe-aligned segment the paper saw is ≈ 6 s.
const holdCap = 6 * time.Second

var errBadAfter = errors.New("bad after parameter")

// parseAfter reads the fill protocol's query, "after=N" and nothing else,
// N the highest sequence the asking edge lists. No query is -1.
func parseAfter(query string) (int, error) {
	if query == "" {
		return -1, nil
	}
	if digits, ok := strings.CutPrefix(query, "after="); ok {
		if n, ok := parseSeq(digits, 1); ok {
			return n, nil
		}
	}
	return 0, errBadAfter
}

// playlistBody answers with the bytes rendered at the last cut. A fill
// request that already lists them is held until the next publication (the
// cut, or the broadcast's end) or until the asker goes away, the endpoint
// shuts down or holdCap expires — those get the unchanged playlist.
func (o *Origin) playlistBody(req *http.Request) ([]byte, bool, error) {
	after, err := parseAfter(req.URL.RawQuery)
	if err != nil {
		return nil, false, err
	}
	pub := o.Seg.pub.Load()
	if after >= max(pub.newest, 0) && !pub.pl.Ended {
		o.Held.Add(1)
		defer o.Held.Add(-1)
		expiry := time.NewTimer(holdCap)
		defer expiry.Stop()
		select {
		case <-pub.next:
			pub = o.Seg.pub.Load()
		case <-req.Context().Done():
		case <-o.Stop:
		case <-expiry.C:
		}
	}
	return pub.raw, pub.pl.Ended, nil
}

func (o *Origin) segmentBody(_ context.Context, seq int, _ bool) ([]byte, error) {
	if seg, ok := o.Seg.Segment(seq); ok {
		return seg.Data, nil
	}
	// Expired or not yet cut.
	return nil, &UpstreamError{Status: http.StatusNotFound}
}

// ServeHTTP serves "playlist.m3u8" and "segNNNNNN.ts" paths (any prefix)
// from the edge cache, filling from origin as needed.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	Resolve(req, r, false).Write(w)
}

// playlistBody ignores the query: a viewer cannot make the edge hold.
func (r *Replica) playlistBody(req *http.Request) ([]byte, bool, error) {
	raw, pl, err := r.Playlist(req.Context())
	return raw, pl.Ended, err
}

func (r *Replica) segmentBody(ctx context.Context, seq int, cacheOnly bool) ([]byte, error) {
	if !cacheOnly {
		return r.Segment(ctx, seq)
	}
	if data, ok := r.CachedSegment(seq); ok {
		return data, nil
	}
	return nil, &UpstreamError{Status: http.StatusNotFound}
}
