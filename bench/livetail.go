package main

import (
	"errors"
	"fmt"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/hls"
	"periscope/internal/mpegts"
	"periscope/internal/player"
)

// liveTail is the heavy-tail workload: many live broadcasts with a single
// viewer each, so every segment is filled once and served once. It is an
// open loop on a fixed schedule: worker i owns the viewers whose broadcasts
// prefer POP i and polls one of them every pollInterval/viewersPerPOP, each
// viewer therefore once per pollInterval. Latencies count from the time a
// poll was due, not from when the worker got to it. An op is one segment
// delivered and checked; its latency is the paper's delivery latency, from
// the capture of its last frame to the end of its fetch, sampled for every
// segment captured after its viewer joined.
type liveTail struct {
	*env
	clients [numWorkers]*httpWorker
	viewers [numWorkers][]*tailViewer
	round   [numWorkers]int // polls issued so far, across run calls
	iter    [numWorkers]uint32

	late      [numWorkers][]float64 // ms each poll started after it was due
	joins     [numWorkers][]float64 // ms
	staleness [numWorkers][]float64 // ms, capture end → listing playlist seen
}

const (
	viewersPerPOP = 16
	pollInterval  = time.Second
	// pipelineStagger spaces the broadcasters' starts in setup so their
	// segment boundaries do not fall together: alike encoder settings keep
	// alike segment durations, and phases that start aligned stay aligned
	// for the whole window.
	pipelineStagger = 125 * time.Millisecond
)

// tailViewer is one viewer's session state.
type tailViewer struct {
	id      string
	session string
	base    string    // HLS base URL, set on join
	next    int       // next sequence to fetch; -1 before the first segment
	start   time.Time // first poll's due time: join clock and chunk clock
	media   time.Duration
	chunks  []player.Chunk
}

func (w *liveTail) setup() error {
	if err := w.boot(); err != nil {
		return err
	}
	var perPOP [numWorkers][]*broadcastmodel.Broadcast
	for pop := range perPOP {
		picks, err := pickBroadcasts(w.svc, viewersPerPOP, func(b *broadcastmodel.Broadcast) bool {
			return w.svc.PreferredPOPIndex(b.ID) == pop
		})
		if err != nil {
			return fmt.Errorf("POP %d: %w", pop, err)
		}
		perPOP[pop] = picks
	}
	for j := 0; j < viewersPerPOP; j++ {
		for pop := range perPOP {
			b := perPOP[pop][j]
			if _, err := startHLS(w.svc, w.cfg, b); err != nil {
				return err
			}
			w.ids = append(w.ids, b.ID)
			w.viewers[pop] = append(w.viewers[pop], &tailViewer{
				id:      b.ID,
				session: fmt.Sprintf("tail-%d-%02d", pop, j),
				next:    -1,
			})
			time.Sleep(pipelineStagger)
		}
	}
	if err := waitSegments(w.svc, w.ids, 2, 40*time.Second); err != nil {
		return err
	}
	for i := range w.clients {
		w.clients[i] = newHTTPWorker()
	}
	return nil
}

func (w *liveTail) run(end time.Time, tr *tracer) {
	start := time.Now()
	runWorkers(func(i int) {
		viewers := w.viewers[i]
		spacing := pollInterval / time.Duration(len(viewers))
		first := w.round[i]
		for {
			k := w.round[i] - first
			due := start.Add(time.Duration(k) * spacing)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			w.late[i] = append(w.late[i], float64(time.Since(due))/float64(time.Millisecond))
			w.poll(i, viewers[w.round[i]%len(viewers)], due, tr)
			w.round[i]++
		}
	})
}

// poll is one viewer's turn: join through the API if it has not yet, fetch
// the playlist, then fetch and check every segment it has not seen.
func (w *liveTail) poll(i int, v *tailViewer, due time.Time, tr *tracer) {
	c, log := w.clients[i], &w.logs[i]
	w.iter[i]++
	req := w.iter[i]
	root := tr.begin(i, spIteration, req, -1)
	defer tr.end(i, root)

	if v.base == "" {
		v.start = due
		cli := api.NewClient(w.svc.APIBaseURL(), v.session, c.client)
		sp := tr.begin(i, spAPIAccessVideo, req, root)
		acc, err := cli.AccessVideo(v.id)
		tr.end(i, sp)
		if err != nil || acc.HLSBaseURL == "" {
			log.fail(fmt.Errorf("join %s: %v (protocol %q)", v.id, err, acc.Protocol))
			return
		}
		v.base = acc.HLSBaseURL
	}

	sp := tr.begin(i, spPlaylistGet, req, root)
	body, err := c.get(v.base + "/playlist.m3u8")
	tr.end(i, sp)
	seen := time.Now()
	if err != nil {
		log.fail(err)
		return
	}
	sp = tr.begin(i, spPlaylistParse, req, root)
	pl, err := hls.ParseMediaPlaylist(body)
	tr.end(i, sp)
	if err != nil || len(pl.Segments) == 0 {
		log.fail(fmt.Errorf("playlist %s: %d segments, %v", v.id, len(pl.Segments), err))
		return
	}
	segs := pl.Segments
	if v.next < 0 {
		// A joining player starts at the live edge.
		segs = segs[len(segs)-1:]
	} else if segs[0].Sequence > v.next {
		log.fail(fmt.Errorf("viewer %s: gap, wanted segment %d but the window starts at %d", v.id, v.next, segs[0].Sequence))
		v.next = segs[0].Sequence
	}
	for _, s := range segs {
		if s.Sequence < v.next {
			continue
		}
		sp = tr.begin(i, spSegmentGet, req, root)
		body, err := c.get(v.base + "/" + s.URI)
		tr.end(i, sp)
		fetched := time.Now()
		if err != nil {
			log.fail(err)
			return
		}
		sp = tr.begin(i, spSegmentVerify, req, root)
		captureEnd, mediaDur, err := segmentCapture(body)
		tr.end(i, sp)
		if err != nil {
			log.fail(fmt.Errorf("%s/%s: %w", v.id, s.URI, err))
			return
		}
		if v.next < 0 {
			w.joins[i] = append(w.joins[i], float64(fetched.Sub(v.start))/float64(time.Millisecond))
		}
		v.next = s.Sequence + 1
		v.chunks = append(v.chunks, player.Chunk{
			Arrival:    fetched.Sub(v.start),
			MediaStart: v.media,
			MediaEnd:   v.media + mediaDur,
			CaptureEnd: captureEnd.Sub(v.start),
		})
		v.media += mediaDur
		if captureEnd.Before(v.start) {
			// Catch-up: media captured before this viewer arrived is
			// delivered and checked, but says nothing about live latency.
			log.done(len(body))
			continue
		}
		delivery := fetched.Sub(captureEnd)
		if delivery > 2*w.cfg.SegmentTarget {
			log.fail(fmt.Errorf("%s/%s delivered %v after capture", v.id, s.URI, delivery))
			continue
		}
		w.staleness[i] = append(w.staleness[i], float64(seen.Sub(captureEnd))/float64(time.Millisecond))
		log.latency(captureEnd, fetched)
		log.done(len(body))
	}
}

// segmentCapture checks a segment and recovers when its last video frame
// was captured, from the NTP stamp the broadcaster embedded as an SEI — the
// paper's delivery-latency method, as session.segmentToChunk applies it.
func segmentCapture(body []byte) (captureEnd time.Time, mediaDur time.Duration, err error) {
	if err := verifyTS(body, false); err != nil {
		return time.Time{}, 0, err
	}
	units, err := mpegts.DemuxAll(body)
	if err != nil {
		return time.Time{}, 0, err
	}
	var minPTS, maxPTS, seiPTS int64 = -1, -1, -1
	var seiWall time.Time
	for _, u := range units {
		if u.PID != mpegts.PIDVideo {
			continue
		}
		if minPTS < 0 || u.PTS < minPTS {
			minPTS = u.PTS
		}
		maxPTS = max(maxPTS, u.PTS)
		if seiPTS < 0 {
			if nals, err := avc.ParseAnnexB(u.Data); err == nil {
				if ts, ok := avc.FindTimestamp(nals); ok {
					seiWall, seiPTS = ts, u.PTS
				}
			}
		}
	}
	if seiPTS < 0 {
		return time.Time{}, 0, errors.New("segment carries no SEI capture stamp")
	}
	return seiWall.Add(mpegts.FromTicks(maxPTS - seiPTS)), mpegts.FromTicks(maxPTS - minPTS), nil
}

func (w *liveTail) verify() []error {
	var errs []error
	for i := range w.viewers {
		for _, v := range w.viewers[i] {
			if len(v.chunks) == 0 {
				errs = append(errs, fmt.Errorf("viewer %s received no segment", v.id))
			}
		}
	}
	return errs
}

func (w *liveTail) layerMetrics(out map[string]float64) {
	var late, joins, stale []float64
	for i := range w.late {
		late = append(late, w.late[i]...)
		joins = append(joins, w.joins[i]...)
		stale = append(stale, w.staleness[i]...)
	}
	out["gen.sched_late_p50_ms"] = percentile(late, 0.50)
	out["gen.sched_late_p99_ms"] = percentile(late, 0.99)
	out["gen.join_p50_ms"] = median(joins)
	out["hls.playlist_staleness_p50_ms"] = median(stale)

	engine := player.DefaultHLSEngine(w.cfg.SegmentTarget)
	var stall, latency float64
	var n int
	for i := range w.viewers {
		for _, v := range w.viewers[i] {
			if len(v.chunks) == 0 {
				continue
			}
			m := engine.Run(v.chunks, v.chunks[len(v.chunks)-1].Arrival)
			stall += m.StallRatio
			latency += float64(m.PlaybackLatency) / float64(time.Millisecond)
			n++
		}
	}
	if n > 0 {
		out["player.stall_ratio"] = stall / float64(n)
		out["player.playback_latency_ms"] = latency / float64(n)
	}
}

func (w *liveTail) close() {
	for _, c := range w.clients {
		if c != nil {
			c.close()
		}
	}
	w.shutdown()
}
