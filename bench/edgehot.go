package main

import (
	"fmt"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/hls"
)

// edgeHot is the cache-hit serving workload: a few promoted broadcasts that
// all prefer the same POP, and two closed-loop clients that each resolve
// the edge once per broadcast and then fetch a playlist and every segment
// it lists, broadcast after broadcast, over and over. Fills are a vanishing
// share of the serves.
type edgeHot struct {
	*env
	baseURLs []string
	clients  [numWorkers]*httpWorker
	lastSeq  [numWorkers][]int // per broadcast
	iter     [numWorkers]uint32
}

// hotBroadcasts is how many broadcasts the loop cycles through. Segment
// size differs by about 5 % from one stratum pick to the next, and every
// per-request number follows it; four picks average that out, so a new seed
// moves bytes per request by 2 % instead.
const hotBroadcasts = 4

// deepVerifyEvery is how often a segment is fully demuxed rather than only
// checked for packet framing.
const deepVerifyEvery = 256

func (w *edgeHot) setup() error {
	if err := w.boot(); err != nil {
		return err
	}
	pop := -1
	picks, err := pickBroadcasts(w.svc, hotBroadcasts, func(b *broadcastmodel.Broadcast) bool {
		// The nearest candidate decides the POP; the rest must share it.
		if pop < 0 {
			pop = w.svc.PreferredPOPIndex(b.ID)
		}
		return w.svc.PreferredPOPIndex(b.ID) == pop
	})
	if err != nil {
		return err
	}
	for _, b := range picks {
		if _, err := startHLS(w.svc, w.cfg, b); err != nil {
			return err
		}
		w.ids = append(w.ids, b.ID)
	}
	// A full playlist window, so every iteration of the loop is the same
	// work: one playlist and hls.DefaultWindowSize segments.
	if err := waitSegments(w.svc, w.ids, hls.DefaultWindowSize, 60*time.Second); err != nil {
		return err
	}
	for _, id := range w.ids {
		// Resolve the edge the way a viewer does.
		acc, err := w.svc.AccessVideo(id)
		if err != nil || acc.HLSBaseURL == "" {
			return fmt.Errorf("accessVideo %s: %v (%s)", id, err, acc.Protocol)
		}
		w.baseURLs = append(w.baseURLs, acc.HLSBaseURL)
	}
	for i := range w.clients {
		w.clients[i] = newHTTPWorker()
		w.lastSeq[i] = make([]int, len(w.ids))
	}
	return nil
}

func (w *edgeHot) run(end time.Time, tr *tracer) {
	runWorkers(func(i int) {
		c, log := w.clients[i], &w.logs[i]
		for time.Now().Before(end) {
			w.iter[i]++
			req := w.iter[i]
			// The workers start half a cycle apart.
			b := (int(req) + i*hotBroadcasts/numWorkers) % len(w.baseURLs)
			baseURL := w.baseURLs[b]
			root := tr.begin(i, spIteration, req, -1)

			sp := tr.begin(i, spPlaylistGet, req, root)
			body, err := c.get(baseURL + "/playlist.m3u8")
			tr.end(i, sp)
			if err != nil {
				log.fail(err)
				tr.end(i, root)
				continue
			}
			sp = tr.begin(i, spPlaylistParse, req, root)
			pl, err := hls.ParseMediaPlaylist(body)
			tr.end(i, sp)
			switch {
			case err != nil:
				log.fail(fmt.Errorf("playlist: %w", err))
			case len(pl.Segments) == 0:
				log.fail(fmt.Errorf("playlist lists no segments"))
			case pl.MediaSequence < w.lastSeq[i][b]:
				log.fail(fmt.Errorf("playlist went back from sequence %d to %d", w.lastSeq[i][b], pl.MediaSequence))
			default:
				w.lastSeq[i][b] = pl.MediaSequence
				log.done(0)
			}

			for _, s := range pl.Segments {
				t0 := time.Now()
				sp = tr.begin(i, spSegmentGet, req, root)
				body, err := c.get(baseURL + "/" + s.URI)
				tr.end(i, sp)
				t1 := time.Now()
				if err != nil {
					log.fail(err)
					continue
				}
				sp = tr.begin(i, spSegmentVerify, req, root)
				err = verifyTS(body, log.attempted%deepVerifyEvery == 0)
				tr.end(i, sp)
				if err != nil {
					log.fail(fmt.Errorf("%s: %w", s.URI, err))
					continue
				}
				log.latency(t0, t1)
				log.done(len(body))
			}
			tr.end(i, root)
		}
	})
}

func (w *edgeHot) verify() []error { return nil }

func (w *edgeHot) layerMetrics(map[string]float64) {}

func (w *edgeHot) close() {
	for _, c := range w.clients {
		if c != nil {
			c.close()
		}
	}
	w.shutdown()
}
