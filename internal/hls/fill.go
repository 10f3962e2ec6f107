package hls

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// UpstreamError reports a non-200 upstream response, preserving the status
// so the edge can mirror 404s (expired segments) instead of masking them
// as gateway failures.
type UpstreamError struct {
	Status int
}

func (e *UpstreamError) Error() string {
	return fmt.Sprintf("hls: upstream status %d", e.Status)
}

// FillClient fetches origin data over HTTP — the POP-internal fill path.
type FillClient struct {
	// BaseURL is the origin directory holding playlist.m3u8 and segments.
	BaseURL string
	// HTTP may carry a shaped or instrumented transport; defaults to
	// http.DefaultClient.
	HTTP *http.Client
}

// maxBody bounds the body of a playlist or segment response. Every tier
// frames its answers with Content-Length, so a larger declared length is
// refused before anything is allocated. It sits well above the largest
// segment the testbed cuts (a 4-minute segment at 2 Mbps, ≈ 60 MB).
const maxBody = 256 << 20

// maxErrorDrain bounds what is read of a non-200 body to keep the
// connection reusable; a longer one costs the connection instead.
const maxErrorDrain = 64 << 10

// errUnframedBody is returned for a 200 response with no Content-Length.
var errUnframedBody = errors.New("hls: response body has no Content-Length")

// get fetches url and reads a 200 body into one buffer of exactly its
// declared length — the one copy a body costs on this hop. A body that
// declares no length or more than maxBody is refused, and one that ends
// early is an error, never a short result.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorDrain))
		return nil, &UpstreamError{Status: resp.StatusCode}
	}
	switch n := resp.ContentLength; {
	case n < 0:
		return nil, errUnframedBody
	case n > maxBody:
		return nil, fmt.Errorf("hls: %d-byte body exceeds the %d-byte bound", n, maxBody)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// afterKey carries a watch round's "after" — the newest sequence the edge
// lists, which the origin answers at the next cut — down to FillClient
// through the two-method SegmentSource and whatever wraps the client.
type afterKey struct{}

// FetchPlaylist implements SegmentSource.
func (c *FillClient) FetchPlaylist(ctx context.Context) ([]byte, error) {
	url := c.BaseURL + "/playlist.m3u8"
	if after, ok := ctx.Value(afterKey{}).(int); ok {
		url += "?after=" + strconv.Itoa(after)
	}
	return get(ctx, c.HTTP, url)
}

// FetchSegment implements SegmentSource.
func (c *FillClient) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	return get(ctx, c.HTTP, c.BaseURL+"/"+SegmentName(seq))
}

// TieredSource is the hierarchical fill path of a geo-aware edge, the
// policy Fastly-style CDNs use to keep origin egress at O(clusters)
// instead of O(POPs) per segment: a missing segment is probed from
// cache-only peer POPs (nearest first) and only falls back to the origin
// when no peer holds it. Peers never fill recursively — a probe answers
// from cache or 404s — so a fill is at most two hops (origin → first POP
// in a cluster, then peer → the rest). Playlists always come from the
// origin: the live window must be fresh, and a peer's copy may be stale.
//
// TieredSource sits below a Replica's single-flight layer, so however
// many viewers fan in at one edge, the whole peer-then-origin cascade
// runs once per segment.
type TieredSource struct {
	// Peers are cache-only sources, tried in order (nearest first). A 404
	// means the peer does not hold the segment; any other error also falls
	// through to the next tier.
	Peers []SegmentSource
	// Origin is the authoritative source (required).
	Origin SegmentSource
	// Counters is the block the tier's peer/origin outcomes count into —
	// the parent's when a longer-lived owner such as a POP reports for many
	// sources. Nil counts into the source's own block.
	Counters *FillCounters
	own      FillCounters
}

// probeTimeout bounds one cache-only peer probe. A probe is a single RTT
// plus a cached read, so it needs far less than a full origin fill. Every
// probe additionally gets a fair share of whatever budget remains on the
// caller's context (remaining / tiers-left, origin counted as the last
// tier), so one hung peer can delay but never consume the whole fill
// window.
const probeTimeout = time.Second

// FetchPlaylist implements SegmentSource: playlists are origin-only.
func (t *TieredSource) FetchPlaylist(ctx context.Context) ([]byte, error) {
	return t.Origin.FetchPlaylist(ctx)
}

// FetchSegment implements SegmentSource: probe peers nearest-first, fall
// back to the origin. Each probe runs under its own deadline carved from
// the remaining context budget — the bugfix for all tiers sharing one
// flat FillTimeout, where the first hung peer starved every tier after
// it.
func (t *TieredSource) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	c := t.counters()
	for i, p := range t.Peers {
		per := probeTimeout
		if deadline, ok := ctx.Deadline(); ok {
			// Fair share of the remaining budget across the tiers still
			// to try (peers left + the origin).
			share := time.Until(deadline) / time.Duration(len(t.Peers)-i+1)
			if share < per {
				per = share
			}
			if per <= 0 {
				return nil, context.DeadlineExceeded
			}
		}
		pctx, cancel := context.WithTimeout(ctx, per)
		data, err := p.FetchSegment(pctx, seq)
		cancel()
		if err == nil {
			c.PeerFills.Add(1)
			c.PeerFillBytes.Add(int64(len(data)))
			return data, nil
		}
		if errors.Is(err, ErrBreakerOpen) {
			c.PeerSkips.Add(1)
		} else {
			c.PeerMisses.Add(1)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	c.OriginFills.Add(1)
	return t.Origin.FetchSegment(ctx, seq)
}

func (t *TieredSource) counters() *FillCounters {
	if t.Counters != nil {
		return t.Counters
	}
	return &t.own
}

// Stats returns a point-in-time copy of the block the tier counts into.
func (t *TieredSource) Stats() FillStats { return t.counters().Load() }
