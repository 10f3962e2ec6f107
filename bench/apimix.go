package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"periscope/internal/api"
)

// apiMix is the control-plane workload: the §4 crawler's commands and the
// app's own, issued closed-loop by two clients over 256 session keys
// against the default 300-broadcast population. accessVideo only ever names
// four broadcasts whose pipelines setup started, so the window spawns none
// and the media layers stay idle.
type apiMix struct {
	*env
	transports [numWorkers]*http.Transport
	sessions   [numWorkers][]*api.Client
	rngs       [numWorkers]*rand.Rand
	iter       [numWorkers]uint32
	allIDs     []string        // every live public broadcast, sorted
	live       map[string]bool // the same, for checking teleport targets
}

const (
	apiSessions       = 256
	apiPipelines      = 4
	getBroadcastsSize = 20
)

func (w *apiMix) setup() error {
	if err := w.boot(); err != nil {
		return err
	}
	picks, err := pickBroadcasts(w.svc, apiPipelines, nil)
	if err != nil {
		return err
	}
	for _, b := range picks {
		if _, err := startHLS(w.svc, w.cfg, b); err != nil {
			return err
		}
		w.ids = append(w.ids, b.ID)
	}
	w.live = map[string]bool{}
	for _, b := range w.svc.Pop.Live() {
		if !b.Private {
			w.allIDs = append(w.allIDs, b.ID)
			w.live[b.ID] = true
		}
	}
	sort.Strings(w.allIDs)
	if len(w.allIDs) < getBroadcastsSize {
		return fmt.Errorf("population has only %d public broadcasts", len(w.allIDs))
	}
	for i := range w.transports {
		tr := newTransport()
		w.transports[i] = tr
		hc := &http.Client{
			Transport: &countingTransport{base: tr, bytes: &w.logs[i].bytes},
			Timeout:   10 * time.Second,
		}
		for s := i; s < apiSessions; s += numWorkers {
			w.sessions[i] = append(w.sessions[i], api.NewClient(w.svc.APIBaseURL(), fmt.Sprintf("session-%03d", s), hc))
		}
		w.rngs[i] = rand.New(rand.NewSource(w.seed*numWorkers + int64(i)))
	}
	return nil
}

func (w *apiMix) run(end time.Time, tr *tracer) {
	runWorkers(func(i int) {
		log, rng := &w.logs[i], w.rngs[i]
		for time.Now().Before(end) {
			w.iter[i]++
			req := w.iter[i]
			cli := w.sessions[i][rng.Intn(len(w.sessions[i]))]
			root := tr.begin(i, spIteration, req, -1)
			t0 := time.Now()
			err := w.request(i, cli, rng, req, root, tr)
			t1 := time.Now()
			tr.end(i, root)
			if err != nil {
				log.fail(err)
				continue
			}
			log.latency(t0, t1)
			// Response bytes are counted by the transport.
			log.done(0)
		}
	})
}

// request issues one command of the 40/30/10/10/10 mix and checks the
// decoded response.
func (w *apiMix) request(i int, cli *api.Client, rng *rand.Rand, req uint32, root int32, tr *tracer) error {
	switch r := rng.Float64(); {
	case r < 0.40:
		// Rotating rectangles, from city-sized to continental, as a deep
		// crawl issues them while it zooms.
		size := []float64{5, 20, 60}[rng.Intn(3)]
		lat := -60 + rng.Float64()*(120-size)
		lng := -180 + rng.Float64()*(360-size)
		sp := tr.begin(i, spAPIMapGeo, req, root)
		resp, err := cli.MapGeoBroadcastFeed(api.MapGeoBroadcastFeedRequest{
			P1Lat: lat, P1Lng: lng, P2Lat: lat + size, P2Lng: lng + size,
		})
		tr.end(i, sp)
		if err != nil {
			return err
		}
		for _, d := range resp.Broadcasts {
			if d.ID == "" || d.Latitude < lat || d.Latitude > lat+size {
				return fmt.Errorf("mapGeoBroadcastFeed returned %q at latitude %v outside [%v,%v]", d.ID, d.Latitude, lat, lat+size)
			}
		}
	case r < 0.70:
		off := rng.Intn(len(w.allIDs) - getBroadcastsSize + 1)
		ids := w.allIDs[off : off+getBroadcastsSize]
		sp := tr.begin(i, spAPIGetBroadcasts, req, root)
		resp, err := cli.GetBroadcasts(ids)
		tr.end(i, sp)
		if err != nil {
			return err
		}
		if len(resp.Broadcasts) != len(ids) {
			return fmt.Errorf("getBroadcasts returned %d of %d descriptions", len(resp.Broadcasts), len(ids))
		}
	case r < 0.80:
		sp := tr.begin(i, spAPITeleport, req, root)
		id, err := cli.Teleport()
		tr.end(i, sp)
		if err != nil {
			return err
		}
		if !w.live[id] {
			return fmt.Errorf("teleport landed on %q, not a live public broadcast", id)
		}
	case r < 0.90:
		sp := tr.begin(i, spAPIAccessVideo, req, root)
		acc, err := cli.AccessVideo(w.ids[rng.Intn(len(w.ids))])
		tr.end(i, sp)
		if err != nil {
			return err
		}
		if acc.Protocol != "HLS" || acc.HLSBaseURL == "" {
			return fmt.Errorf("accessVideo answered protocol %q without an HLS URL", acc.Protocol)
		}
	default:
		sp := tr.begin(i, spAPIPlaybackMeta, req, root)
		err := cli.PlaybackMeta(api.PlaybackMeta{
			BroadcastID:  w.ids[rng.Intn(len(w.ids))],
			Protocol:     "HLS",
			NStallEvents: rng.Intn(3),
			PlayTimeSec:  60,
		})
		tr.end(i, sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *apiMix) verify() []error {
	if n := w.svc.API.Metrics().RateLimited; n != 0 {
		return []error{fmt.Errorf("API gateway answered %d requests with 429", n)}
	}
	var errs []error
	for i := range w.sessions {
		for _, cli := range w.sessions[i] {
			if cli.RateLimited() != 0 {
				errs = append(errs, errors.New("a session saw a 429"))
			}
		}
	}
	return errs
}

func (w *apiMix) layerMetrics(map[string]float64) {}

func (w *apiMix) close() {
	for _, tr := range w.transports {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	w.shutdown()
}
