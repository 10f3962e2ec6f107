package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"periscope/internal/api"
	"periscope/internal/service"
)

// workload is one traffic mix. The harness calls setup, then run once
// (untraced) or twice (traced phase, then an untraced phase for the
// overhead ratio), then verify, then close.
type workload interface {
	// setup boots the testbed through public entry points and prepares
	// everything the window needs, so the window itself spawns nothing.
	setup() error
	// run drives the workload from exactly numWorkers generator goroutines
	// until end and returns when both have stopped.
	run(end time.Time, tr *tracer)
	// verify drains the system and checks the workload's invariants.
	verify() []error
	// layerMetrics adds the workload's own per-layer numbers.
	layerMetrics(out map[string]float64)
	// close releases every connection, transport and goroutine.
	close()
	base() *env
}

// env is what every workload shares: the booted service, the measured
// broadcasts and the two workers' logs.
type env struct {
	seed int64
	cfg  service.Config
	svc  *service.Service
	// ids are the broadcasts whose pipelines setup started.
	ids  []string
	logs [numWorkers]workerLog
	// paced marks an open-loop workload driven by a real-time schedule
	// rather than by CPU; see endToEndMetrics for what that changes.
	paced bool
}

func (e *env) base() *env { return e }

// boot starts the service on loopback. Only CDN fill links carry modelled
// RTT; the API limiter runs on every request but is sized never to reject.
func (e *env) boot() error {
	cfg := service.DefaultConfig()
	cfg.Seed = e.seed
	cfg.PopConfig.Seed = e.seed
	cfg.CDNLinkRTTScale = 1
	cfg.APIRateLimit = 1e9
	cfg.APIBurst = 1e9
	svc, err := service.Start(cfg)
	if err != nil {
		return fmt.Errorf("service.Start: %w", err)
	}
	e.cfg, e.svc = cfg, svc
	return nil
}

func (e *env) shutdown() {
	if e.svc != nil {
		e.svc.Close()
		e.svc = nil
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	e := &env{seed: seed}
	switch name {
	case "edge-hot":
		return &edgeHot{env: e}, nil
	case "live-tail":
		e.paced = true
		return &liveTail{env: e}, nil
	case "api-mix":
		return &apiMix{env: e}, nil
	case "chat-room":
		return &chatRoom{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sample is one reading of the process and generator counters.
type sample struct {
	at         time.Time
	cpuUser    time.Duration
	cpuSys     time.Duration
	maxRSSKB   int64
	allocBytes uint64
	ops, bytes int64
	// Gauges, read only in traced runs.
	goroutines  int
	queueDepth  int
	playlistAge time.Duration
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func takeSample(e *env, gauges bool) sample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	s := sample{
		at:         time.Now(),
		cpuUser:    tv(ru.Utime),
		cpuSys:     tv(ru.Stime),
		maxRSSKB:   ru.Maxrss,
		allocBytes: alloc[0].Value.Uint64(),
	}
	for i := range e.logs {
		s.ops += e.logs[i].ops.Load()
		s.bytes += e.logs[i].bytes.Load()
	}
	if gauges {
		s.goroutines = runtime.NumGoroutine()
		snap := e.svc.Snapshot()
		s.queueDepth = snap.Chat.SendQueueDepth
		for _, p := range snap.POPs {
			// An edge no viewer asks never revalidates; its age says nothing.
			if p.Requests > 0 {
				s.playlistAge = max(s.playlistAge, p.MaxPlaylistAge)
			}
		}
	}
	return s
}

// window is one measured interval: samples at its start, every second, and
// at its end, plus the public counters on either side.
type window struct {
	samples              []sample
	snapBefore, snapEnd  service.Snapshot
	apiBefore, apiEnd    api.MetricsSnapshot
	gcPauseBefore, gcEnd uint64
}

const sliceLen = time.Second

// measure runs w for d and samples the process around and during it.
func measure(w workload, d time.Duration, tr *tracer) *window {
	e := w.base()
	gauges := tr != nil
	win := &window{
		snapBefore: e.svc.Snapshot(),
		apiBefore:  e.svc.API.Metrics(),
	}
	var ms runtime.MemStats
	if gauges {
		runtime.ReadMemStats(&ms)
		win.gcPauseBefore = ms.PauseTotalNs
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	start := takeSample(e, gauges)
	end := start.at.Add(d)
	win.samples = append(win.samples, start)
	go func() {
		defer close(done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// The last slice absorbs a short tail instead of
				// standing alone.
				if time.Until(end) > sliceLen/2 {
					win.samples = append(win.samples, takeSample(e, gauges))
				}
			}
		}
	}()
	w.run(end, tr)
	close(stop)
	<-done
	win.samples = append(win.samples, takeSample(e, gauges))
	win.snapEnd = e.svc.Snapshot()
	win.apiEnd = e.svc.API.Metrics()
	if gauges {
		runtime.ReadMemStats(&ms)
		win.gcEnd = ms.PauseTotalNs
	}
	return win
}

func (w *window) first() sample { return w.samples[0] }
func (w *window) last() sample  { return w.samples[len(w.samples)-1] }

func (w *window) seconds() float64   { return w.last().at.Sub(w.first().at).Seconds() }
func (w *window) ops() int64         { return w.last().ops - w.first().ops }
func (w *window) cpu() time.Duration { return w.last().cpuSince(w.first()) }

// cpuSince is the process CPU time, user plus system, spent since a.
func (s sample) cpuSince(a sample) time.Duration {
	return (s.cpuUser + s.cpuSys) - (a.cpuUser + a.cpuSys)
}

// slices evaluates f on every pair of consecutive samples in which at least
// one op completed.
func (w *window) slices(f func(a, b sample) float64) []float64 {
	var vals []float64
	for i := 1; i < len(w.samples); i++ {
		if a, b := w.samples[i-1], w.samples[i]; b.ops > a.ops {
			vals = append(vals, f(a, b))
		}
	}
	return vals
}

// latencies returns the primary-op latencies (ms) of both workers that
// completed in [from, to) since process start.
func latencies(e *env, from, to time.Duration) []float64 {
	var out []float64
	for i := range e.logs {
		lat := e.logs[i].lat
		lo := sort.Search(len(lat), func(k int) bool { return lat[k].end >= from })
		for _, s := range lat[lo:] {
			if s.end >= to {
				break
			}
			out = append(out, s.ms)
		}
	}
	return out
}

// result is what one run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the untraced run's numbers and the number of
// latency samples behind them.
//
// A closed loop is CPU-saturated, and on a shared two-core box whole seconds
// run a third slower for reasons outside the process. That noise only ever
// makes a second worse, so every number is computed per one-second slice
// and the slice at the better quartile is reported: the run has to sustain it
// for a quarter of its seconds, and a disturbance has to last three quarters
// of the window to move it. A paced loop is not CPU-bound: its rates and
// latencies are set by the schedule and taken over the whole window, and
// only its CPU rate is read from the better-quartile slice.
func endToEndMetrics(e *env, win *window, setupS float64) (map[string]float64, int) {
	first, last := win.first(), win.last()
	all := latencies(e, first.at.Sub(processStart), last.at.Sub(processStart)+1)
	cpuUS := func(a, b sample) float64 { return float64(b.cpuSince(a)) / float64(time.Microsecond) }
	secs := func(a, b sample) float64 { return b.at.Sub(a.at).Seconds() }
	m := map[string]float64{
		"setup_s":     setupS,
		"rss_peak_MB": float64(last.maxRSSKB) / 1024,
	}
	const better, worse = 0.75, 0.25 // quantiles of a higher-is-better series
	if e.paced {
		rate := float64(win.ops()) / win.seconds()
		m["req_per_s"] = rate
		m["goodput_MBps"] = float64(last.bytes-first.bytes) / 1e6 / win.seconds()
		m["op_p50_ms"] = percentile(all, 0.50)
		m["op_p90_ms"] = percentile(all, 0.90)
		m["cpu_us_per_op"] = percentile(win.slices(func(a, b sample) float64 { return cpuUS(a, b) / secs(a, b) }), worse) / rate
		m["alloc_KB_per_op"] = float64(last.allocBytes-first.allocBytes) / 1024 / float64(win.ops())
		return m, len(all)
	}
	ops := func(a, b sample) float64 { return float64(b.ops - a.ops) }
	m["req_per_s"] = percentile(win.slices(func(a, b sample) float64 { return ops(a, b) / secs(a, b) }), better)
	m["goodput_MBps"] = percentile(win.slices(func(a, b sample) float64 { return float64(b.bytes-a.bytes) / 1e6 / secs(a, b) }), better)
	m["cpu_us_per_op"] = percentile(win.slices(func(a, b sample) float64 { return cpuUS(a, b) / ops(a, b) }), worse)
	m["alloc_KB_per_op"] = percentile(win.slices(func(a, b sample) float64 { return float64(b.allocBytes-a.allocBytes) / 1024 / ops(a, b) }), worse)
	for _, q := range []struct {
		name string
		q    float64
	}{{"op_p50_ms", 0.50}, {"op_p90_ms", 0.90}} {
		m[q.name] = percentile(win.slices(func(a, b sample) float64 {
			return percentile(latencies(e, a.at.Sub(processStart), b.at.Sub(processStart)), q.q)
		}), worse)
	}
	return m, len(all)
}

// counterMetrics turns the public-counter deltas over a window into
// per-layer metrics. segmentGETs is the generator's count of segment
// requests in the same window.
func counterMetrics(out map[string]float64, e *env, win *window, segmentGETs int) {
	type popTotals struct {
		fills, originFills, peerFills, fillBytes, singleFlight, capWaits, evictions int64
		stale, refreshes, retries, fillErrors, negative, reroutes                   int64
	}
	sum := func(s service.Snapshot) popTotals {
		var t popTotals
		for _, p := range s.POPs {
			t.fills += p.Fills
			t.originFills += p.OriginFills
			t.peerFills += p.PeerFills
			t.fillBytes += p.FillBytes
			t.singleFlight += p.SingleFlightHits
			t.capWaits += p.FillCapWaits
			t.evictions += p.Evictions
			t.stale += p.StaleServes
			t.refreshes += p.PlaylistRefreshes
			t.retries += p.FillRetries
			t.fillErrors += p.FillErrors
			t.negative += p.NegativeHits
			t.reroutes += p.Reroutes
		}
		return t
	}
	a, b := sum(win.snapBefore), sum(win.snapEnd)
	out["hls.fills"] = float64(b.fills - a.fills)
	out["hls.origin_fills"] = float64(b.originFills - a.originFills)
	out["hls.peer_fills"] = float64(b.peerFills - a.peerFills)
	out["hls.fill_bytes"] = float64(b.fillBytes - a.fillBytes)
	out["hls.single_flight_hits"] = float64(b.singleFlight - a.singleFlight)
	out["hls.fill_cap_waits"] = float64(b.capWaits - a.capWaits)
	out["hls.evictions"] = float64(b.evictions - a.evictions)
	out["hls.stale_serves"] = float64(b.stale - a.stale)
	out["hls.playlist_refreshes"] = float64(b.refreshes - a.refreshes)
	out["hls.fill_retries"] = float64(b.retries - a.retries)
	out["hls.fill_errors"] = float64(b.fillErrors - a.fillErrors)
	out["hls.negative_hits"] = float64(b.negative - a.negative)
	out["service.reroutes"] = float64(b.reroutes - a.reroutes)
	if segmentGETs > 0 {
		hit := 1 - float64(b.fills-a.fills)/float64(segmentGETs)
		out["hls.hit_ratio"] = min(max(hit, 0), 1)
	}
	out["hls.origin_fills_per_segment"] = originFillsPerSegment(e)
	out["service.origin_segment_requests"] = float64(win.snapEnd.Origin.SegmentRequests - win.snapBefore.Origin.SegmentRequests)
	out["service.origin_playlist_requests"] = float64(win.snapEnd.Origin.PlaylistRequests - win.snapBefore.Origin.PlaylistRequests)
	out["service.fanout_drops"] = float64(win.snapEnd.Delivery.Drops - win.snapBefore.Delivery.Drops)
	out["service.fanout_resyncs"] = float64(win.snapEnd.Delivery.Resyncs - win.snapBefore.Delivery.Resyncs)

	out["api.requests"] = float64(win.apiEnd.Requests - win.apiBefore.Requests)
	out["api.errors"] = float64(win.apiEnd.Errors - win.apiBefore.Errors)
	out["api.rate_limited"] = float64(win.apiEnd.RateLimited - win.apiBefore.RateLimited)

	ca, cb := win.snapBefore.Chat, win.snapEnd.Chat
	out["chat.messages_in"] = float64(cb.MessagesIn - ca.MessagesIn)
	out["chat.messages_out"] = float64(cb.MessagesOut - ca.MessagesOut)
	out["chat.drops"] = float64(cb.Drops - ca.Drops)
	if d := cb.MessagesOut - ca.MessagesOut; d > 0 {
		out["chat.drop_ratio"] = float64(cb.Drops-ca.Drops) / float64(d)
		out["chat.deliveries_per_s"] = float64(d) / win.seconds()
	}
	out["chat.sampled_out"] = float64(cb.SampledOut - ca.SampledOut)
	out["chat.heart_taps"] = float64(cb.HeartTaps - ca.HeartTaps)
	out["chat.heart_deltas"] = float64(cb.HeartDeltas - ca.HeartDeltas)
	out["chat.presence_updates"] = float64(cb.PresenceUpdates - ca.PresenceUpdates)

	var goroutines, depth int
	var age time.Duration
	for _, s := range win.samples {
		goroutines = max(goroutines, s.goroutines)
		depth = max(depth, s.queueDepth)
		age = max(age, s.playlistAge)
	}
	out["proc.goroutines_peak"] = float64(goroutines)
	out["chat.send_queue_depth_max"] = float64(depth)
	out["hls.max_playlist_age_ms"] = float64(age) / float64(time.Millisecond)
	first, last := win.first(), win.last()
	out["proc.cpu_user_s"] = (last.cpuUser - first.cpuUser).Seconds()
	out["proc.cpu_sys_s"] = (last.cpuSys - first.cpuSys).Seconds()
	out["proc.gc_pause_total_ms"] = float64(win.gcEnd-win.gcPauseBefore) / 1e6
}

// originFillsPerSegment is the worst POP's origin fetches per segment the
// measured broadcasts have produced, over the life of the service: each
// edge may pull a segment from the origin at most once, however many
// viewers ask for it.
func originFillsPerSegment(e *env) float64 {
	// Fills first, segments second: a segment cut in between can only
	// lower the ratio.
	pops := e.svc.Snapshot().POPs
	var produced int
	for _, id := range e.ids {
		produced += e.svc.BroadcastSegments(id)
	}
	if produced == 0 {
		return 0
	}
	var worst float64
	for _, p := range pops {
		worst = max(worst, float64(p.OriginFills)/float64(produced))
	}
	return worst
}

// spanMetrics maps generator spans onto per-layer latency metrics.
func spanMetrics(out map[string]float64, tr *tracer) {
	us := func(name spanName, q float64) float64 { return percentile(tr.durations(name), q) / 1e3 }
	out["hls.edge_segment_get_p50_us"] = us(spSegmentGet, 0.50)
	out["hls.edge_segment_get_p99_us"] = us(spSegmentGet, 0.99)
	out["hls.edge_playlist_get_p50_us"] = us(spPlaylistGet, 0.50)
	out["hls.edge_playlist_get_p99_us"] = us(spPlaylistGet, 0.99)
	out["api.access_video_p50_us"] = us(spAPIAccessVideo, 0.50)
	out["api.map_geo_p50_us"] = us(spAPIMapGeo, 0.50)
	out["api.get_broadcasts_p50_us"] = us(spAPIGetBroadcasts, 0.50)
	out["api.teleport_p50_us"] = us(spAPITeleport, 0.50)
	out["api.playback_meta_p50_us"] = us(spAPIPlaybackMeta, 0.50)
	out["chat.echo_p50_us"] = us(spChatEcho, 0.50)
	out["chat.echo_p99_us"] = us(spChatEcho, 0.99)
	out["gen.self_ratio"] = tr.selfRatio()
}

// directAccessVideoP50 times Service.AccessVideo in process, without the
// HTTP gateway, on the measured broadcasts (µs; 0 when there are none).
func directAccessVideoP50(e *env) float64 {
	if len(e.ids) == 0 {
		return 0
	}
	var durs []float64
	for i := 0; i < 512; i++ {
		t0 := time.Now()
		if _, err := e.svc.AccessVideo(e.ids[i%len(e.ids)]); err != nil {
			return 0
		}
		durs = append(durs, float64(time.Since(t0))/1e3)
	}
	return median(durs)
}
