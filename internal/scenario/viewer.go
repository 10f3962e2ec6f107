package scenario

import (
	"context"
	"net/http"
	"time"

	"periscope/internal/hls"
	"periscope/internal/netem"
	"periscope/internal/player"
	"periscope/internal/service"
)

// viewerSession is one HLS viewer's life: an hls.Client that resolves
// its edge through the real AccessVideo policy (which is where
// health-driven steering hands out a live POP after a failure) and
// watches until the session deadline or the broadcast's end. QoE is
// replayed through player.Engine afterwards.
type viewerSession struct {
	dur time.Duration

	// Written only by the session goroutine; read after wg.Wait.
	chunks []player.Chunk
	ended  bool // the broadcast ended before the session deadline
}

func (vs *viewerSession) run(svc *service.Service, id string, profile *netem.AccessProfile, seed int64) {
	// Each viewer gets its own transport so its keep-alive sockets die
	// with the session (leakcheck would flag a shared pool's strays).
	var httpc *http.Client
	var closeIdle func()
	if profile != nil {
		link := profile.NewLink(seed)
		tr := link.Transport(nil)
		httpc = &http.Client{Transport: tr, Timeout: 4 * time.Second}
		closeIdle = func() {
			if c, ok := tr.(interface{ CloseIdleConnections() }); ok {
				c.CloseIdleConnections()
			}
		}
	} else {
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		httpc = &http.Client{Transport: tr, Timeout: 2 * time.Second}
		closeIdle = tr.CloseIdleConnections
	}
	defer closeIdle()

	ctx, cancel := context.WithTimeout(context.Background(), vs.dur)
	defer cancel()
	viewer := hls.Client{
		Resolve: func() (string, bool, error) {
			acc, err := svc.AccessVideo(id)
			return acc.HLSBaseURL, acc.Replay, err
		},
		HTTP:         httpc,
		PollInterval: 120 * time.Millisecond,
	}
	// Run returns before its deadline only when the broadcast is over:
	// ENDLIST drained, or replaying when the viewer re-resolved, or gone,
	// which is the one error it returns.
	_ = viewer.Run(ctx, func(fs hls.FetchedSegment) { vs.chunks = append(vs.chunks, fs.Chunk) })
	vs.ended = ctx.Err() == nil
}

// lastArrival is when the session's last segment arrived, 0 for none.
func (vs *viewerSession) lastArrival() time.Duration {
	if len(vs.chunks) == 0 {
		return 0
	}
	return vs.chunks[len(vs.chunks)-1].Arrival
}

// metrics replays the session through the playback-buffer model.
func (vs *viewerSession) metrics(segment time.Duration) player.Metrics {
	dur := vs.dur
	if last := vs.lastArrival(); vs.ended && last > 0 && last < dur {
		// The broadcast ended before the session deadline: judge QoE over
		// the time media was actually available, not the idle tail.
		dur = last
	}
	return player.DefaultHLSEngine(segment).Run(vs.chunks, dur)
}
