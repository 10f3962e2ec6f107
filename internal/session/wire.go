package session

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/netem"
	"periscope/internal/player"
	"periscope/internal/rtmp"
)

// WireConfig drives a single wire-tier viewing session against a running
// service (internal/service or any RTMP/HLS endpoint speaking the same
// API).
type WireConfig struct {
	APIBaseURL string
	Session    string
	// WatchFor is the viewing duration (the study used 60 s; tests use
	// a few seconds).
	WatchFor time.Duration
	// Shaper, if non-nil, applies the tc-style bandwidth limit.
	Shaper *netem.Shaper
	Device Device
}

// WatchOnce performs one Teleport viewing session over real connections
// and returns the session record. The playback metrics come from the same
// buffer engine as the fast tier, fed with real arrival events; capture
// times are recovered from the broadcaster's embedded NTP timestamp SEIs.
func WatchOnce(cfg WireConfig) (Record, error) {
	if cfg.WatchFor <= 0 {
		cfg.WatchFor = 60 * time.Second
	}
	httpClient := netHTTPClient(cfg.Shaper)
	// Wire sessions run in real time, so the client's 429-aware retry
	// (jittered backoff honouring Retry-After) rides out the rate limiter
	// instead of failing the session.
	apiCli := api.NewClient(cfg.APIBaseURL, cfg.Session, httpClient).WithRetry()

	id, err := apiCli.Teleport()
	if err != nil {
		return Record{}, fmt.Errorf("session: teleport: %w", err)
	}
	acc, err := apiCli.AccessVideo(id)
	if err != nil {
		return Record{}, fmt.Errorf("session: accessVideo: %w", err)
	}

	var chunks []player.Chunk
	var engine player.Engine
	start := time.Now()
	switch acc.Protocol {
	case "RTMP":
		engine = player.DefaultRTMPEngine()
		chunks, err = watchRTMP(acc, cfg, start)
	case "HLS":
		engine = player.DefaultHLSEngine(hls.DefaultSegmentTarget)
		joined := false
		viewer := hls.Client{
			// The answer above names the first edge; a failed one is
			// replaced by asking accessVideo again, as the app does.
			Resolve: func() (string, bool, error) {
				if !joined {
					joined = true
					return acc.HLSBaseURL, acc.Replay, nil
				}
				a, err := apiCli.AccessVideo(id)
				return a.HLSBaseURL, a.Replay, err
			},
			HTTP: netHTTPClient(cfg.Shaper),
		}
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(cfg.WatchFor))
		err = viewer.Run(ctx, func(fs hls.FetchedSegment) { chunks = append(chunks, fs.Chunk) })
		cancel()
	default:
		return Record{}, fmt.Errorf("session: unknown protocol %q", acc.Protocol)
	}
	if err != nil {
		return Record{}, err
	}

	m := engine.Run(chunks, cfg.WatchFor)
	m.Protocol = acc.Protocol
	rec := Record{
		BroadcastID: id,
		Device:      cfg.Device.Name,
		Protocol:    acc.Protocol,
		Viewers:     acc.NumWatching,
		Metrics:     m,
		Meta:        metaFor(id, m),
	}
	if cfg.Shaper != nil {
		rec.BandwidthMbps = cfg.Shaper.DownlinkBps / 1e6
	}
	// Report the stats back, exactly as the app does at session end.
	if err := apiCli.PlaybackMeta(rec.Meta); err != nil {
		return rec, fmt.Errorf("session: playbackMeta upload: %w", err)
	}
	return rec, nil
}

func netHTTPClient(s *netem.Shaper) *http.Client {
	if s == nil {
		return nil
	}
	return s.HTTPClient()
}

// watchRTMP plays the stream over RTMP and converts received messages to
// player chunks.
func watchRTMP(acc api.AccessVideoResponse, cfg WireConfig, start time.Time) ([]player.Chunk, error) {
	dial := net.Dial
	if cfg.Shaper != nil {
		dial = cfg.Shaper.Dialer()
	}
	nc, err := dial("tcp", acc.RTMPAddr)
	if err != nil {
		return nil, err
	}
	cli, err := rtmp.NewClientConn(nc, "live", "rtmp://"+acc.RTMPServer+":80/live")
	if err != nil {
		nc.Close()
		return nil, err
	}
	defer cli.Close()
	if err := cli.Play(acc.StreamName); err != nil {
		return nil, err
	}

	deadline := start.Add(cfg.WatchFor)
	nc.SetReadDeadline(deadline)

	var chunks []player.Chunk
	// Capture-clock anchoring from SEI timestamps: capture(pts) =
	// seiWall + (pts − seiPTS).
	var seiWall time.Time
	var seiPTS time.Duration
	haveSEI := false
	var lastPTS time.Duration
	havePrev := false

	for time.Now().Before(deadline) {
		msg, err := cli.ReadMessage()
		if err != nil {
			break // deadline or stream end
		}
		if msg.TypeID != rtmp.TypeVideo {
			continue
		}
		vt, err := flv.ParseVideoTagData(msg.Payload)
		if err != nil || vt.PacketType != flv.AVCNALU {
			continue
		}
		arrival := time.Since(start)
		dts := time.Duration(msg.Timestamp) * time.Millisecond
		pts := dts + time.Duration(vt.CompositionTime)*time.Millisecond
		if units, err := avc.ParseAVCC(vt.Data); err == nil {
			if ts, ok := avc.FindTimestamp(units); ok {
				seiWall = ts
				seiPTS = pts
				haveSEI = true
			}
		}
		if !havePrev {
			// First frame anchors the media clock; it carries no span yet.
			havePrev = true
			lastPTS = pts
			continue
		}
		if pts <= lastPTS {
			continue // out-of-order delivery; no new media span
		}
		capture := arrival // fallback when no SEI seen yet
		if haveSEI {
			capture = seiWall.Add(pts - seiPTS).Sub(start)
		}
		chunks = append(chunks, player.Chunk{
			Arrival:    arrival,
			MediaStart: lastPTS,
			MediaEnd:   pts,
			CaptureEnd: capture,
		})
		lastPTS = pts
	}
	return chunks, nil
}
