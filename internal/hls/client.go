package hls

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"periscope/internal/avc"
	"periscope/internal/mpegts"
	"periscope/internal/player"
)

// Client is the HLS viewer: the one loop outside the benchmark that
// watches a stream by polling its playlist. It resolves an edge through
// its caller, joins at the newest listed segment, and fetches segments
// one at a time in sequence order. Each arrives as a player.Chunk whose
// capture time is read from the broadcaster's timestamp SEI, so §5.1's
// delivery latency is measured, not assumed.
type Client struct {
	// Resolve names the edge to watch: the base URL holding playlist.m3u8,
	// and whether the stream there is a replay. Run calls it to join and
	// again whenever the edge stops answering; an error ends the session.
	Resolve func() (baseURL string, replay bool, err error)
	// HTTP may carry a shaped transport; nil means http.DefaultClient.
	HTTP *http.Client
	// PollInterval is the wait between playlist polls; zero polls at half
	// DefaultSegmentTarget, as typical players do.
	PollInterval time.Duration
}

// FetchedSegment is one segment as the viewer received it.
type FetchedSegment struct {
	Sequence int
	// Data is the MPEG-TS body, read whole under its Content-Length.
	Data []byte
	// Chunk is the segment as the playback-buffer model takes it, timed
	// from the start of Run.
	Chunk player.Chunk
}

// Run watches the stream until ctx ends, calling emit for each segment in
// sequence order. It returns sooner only once the stream is over: it has
// drained a playlist marked ENDLIST, or a live session's edge failed and
// Resolve answered with the replay. Its error is that of a Resolve that
// failed, which ends the session too. An edge that does not answer (or
// an empty base URL) is resolved again after a poll interval; a segment
// holding no video is skipped.
func (c *Client) Run(ctx context.Context, emit func(FetchedSegment)) error {
	start := time.Now()
	poll := c.PollInterval
	if poll <= 0 {
		poll = DefaultSegmentTarget / 2
	}
	base, vod, err := c.Resolve()
	if err != nil {
		return fmt.Errorf("hls: resolving an edge: %w", err)
	}
	next := -1 // the next sequence to fetch; -1 until the first playlist
	for {
		if base == "" {
			var replay bool
			if base, replay, err = c.Resolve(); err != nil {
				return fmt.Errorf("hls: resolving an edge: %w", err)
			}
			if replay && !vod {
				// The broadcast ended while its edge was down: a live
				// session stops rather than run on into the replay.
				return nil
			}
		}
		body, err := get(ctx, c.HTTP, base+"/playlist.m3u8")
		var pl MediaPlaylist
		if err == nil {
			pl, err = ParseMediaPlaylist(body)
		}
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			// The edge stopped answering: resolve again after the wait.
			base, pl = "", MediaPlaylist{}
		}
		if next < 0 && len(pl.Segments) > 0 {
			// Join at the newest listed segment, as live players do.
			next = pl.Segments[len(pl.Segments)-1].Sequence
		}
		for _, s := range pl.Segments {
			if s.Sequence < next {
				continue
			}
			data, err := get(ctx, c.HTTP, base+"/"+s.URI)
			if ctx.Err() != nil {
				return nil
			}
			if err != nil {
				base = ""
				break
			}
			next = s.Sequence + 1
			if ch, ok := segmentChunk(data, start, time.Now()); ok {
				emit(FetchedSegment{Sequence: s.Sequence, Data: data, Chunk: ch})
			}
		}
		if pl.Ended && base != "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
}

// segmentChunk demuxes one MPEG-TS segment into a player chunk: its media
// span is the PTS range of its video frames, and its capture end is the
// wall time of its last frame, from the first timestamp SEI it carries
// (arrival stands in when it carries none). Times are relative to start.
func segmentChunk(data []byte, start, arrived time.Time) (player.Chunk, bool) {
	units, err := mpegts.DemuxAll(data)
	if err != nil {
		return player.Chunk{}, false
	}
	var minPTS, maxPTS int64 = -1, -1
	var seiWall time.Time
	var seiPTS int64 = -1
	for _, u := range units {
		if u.PID != mpegts.PIDVideo {
			continue
		}
		if minPTS == -1 || u.PTS < minPTS {
			minPTS = u.PTS
		}
		if u.PTS > maxPTS {
			maxPTS = u.PTS
		}
		if seiPTS == -1 {
			if nals, err := avc.ParseAnnexB(u.Data); err == nil {
				if ts, ok := avc.FindTimestamp(nals); ok {
					seiWall = ts
					seiPTS = u.PTS
				}
			}
		}
	}
	if minPTS == -1 {
		return player.Chunk{}, false
	}
	arrival := arrived.Sub(start)
	capture := arrival
	if seiPTS >= 0 {
		capture = seiWall.Add(mpegts.FromTicks(maxPTS - seiPTS)).Sub(start)
	}
	return player.Chunk{
		Arrival:    arrival,
		MediaStart: mpegts.FromTicks(minPTS),
		MediaEnd:   mpegts.FromTicks(maxPTS),
		CaptureEnd: capture,
	}, true
}
