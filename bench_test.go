// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md §5 and micro-benchmarks of the protocol substrates. Each
// figure benchmark reports the headline statistics of its artefact via
// b.ReportMetric, so `go test -bench=.` regenerates the evaluation's
// numbers in one run (see EXPERIMENTS.md for the paper-vs-measured
// comparison).
package periscope

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/amf"
	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/crawler"
	"periscope/internal/media"
	"periscope/internal/mediaanalysis"
	"periscope/internal/mpegts"
	"periscope/internal/player"
	"periscope/internal/power"
	"periscope/internal/rtmp"
	"periscope/internal/session"
	"periscope/internal/stats"
)

// --- Table 1 ---

// BenchmarkTable1APICommands exercises the three Table-1 API commands
// through api.Client against a live API server over loopback, so its
// allocs/op count both ends: the client's request build and answer read,
// and the gateway's handler, decode and encode.
func BenchmarkTable1APICommands(b *testing.B) {
	pc := broadcastmodel.DefaultConfig()
	pc.TargetConcurrent = 500
	pop := broadcastmodel.New(pc, time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC))
	srv := api.NewServer(pop, nil, api.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	cli := api.NewClient("http://"+ln.Addr().String(), "bench", nil)

	var ids []string
	for _, bc := range pop.Live()[:10] {
		ids = append(ids, bc.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.MapGeoBroadcastFeed(api.MapGeoBroadcastFeedRequest{
			P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.GetBroadcasts(ids); err != nil {
			b.Fatal(err)
		}
		if err := cli.PlaybackMeta(api.PlaybackMeta{BroadcastID: ids[0], Protocol: "RTMP"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAPIGateway hammers getBroadcasts with parallel sessions served
// in-process (no sockets), so what it measures is the gateway itself:
// its fixed steps, rate-limiter table contention, JSON codec. Each
// goroutine is a distinct session token, i.e. a distinct limiter bucket —
// with a sharded limiter the parallel throughput scales instead of
// serializing on one global mutex.
func BenchmarkAPIGateway(b *testing.B) {
	pc := broadcastmodel.DefaultConfig()
	pc.TargetConcurrent = 500
	pop := broadcastmodel.New(pc, time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC))
	scfg := api.DefaultServerConfig()
	scfg.RateLimit = 1e9 // limiting on, never denies: measure the hot path
	scfg.Burst = 1e9
	srv := api.NewServer(pop, nil, scfg)

	var ids []string
	for _, bc := range pop.Live()[:10] {
		ids = append(ids, bc.ID)
	}
	body, err := json.Marshal(api.GetBroadcastsRequest{BroadcastIDs: ids})
	if err != nil {
		b.Fatal(err)
	}
	var sess atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine request and sink writer, reused across iterations
		// so the measurement is the gateway's own work, not harness
		// garbage.
		session := fmt.Sprintf("bench-sess-%d", sess.Add(1))
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/api/v2/getBroadcasts", io.NopCloser(rd))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.SessionHeader, session)
		w := &sinkResponseWriter{header: http.Header{}}
		for pb.Next() {
			rd.Seek(0, io.SeekStart)
			w.status = 0
			srv.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
	})
}

// sinkResponseWriter discards the response body and records the status.
type sinkResponseWriter struct {
	header http.Header
	status int
}

func (w *sinkResponseWriter) Header() http.Header { return w.header }

func (w *sinkResponseWriter) WriteHeader(code int) { w.status = code }

func (w *sinkResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// --- helpers shared by figure benches ---

func qoeRecords(b *testing.B, unlimited, perLimit int) []session.Record {
	b.Helper()
	cfg := session.DefaultCampaignConfig()
	cfg.UnlimitedSessions = unlimited
	cfg.LimitsMbps = []float64{0.5, 1, 2, 4, 10}
	cfg.SessionsPerLimit = perLimit
	cfg.PopTarget = 1000
	return session.NewCampaign(cfg).Run()
}

// --- Figure 2 ---

// BenchmarkFigure2aDurationViewers runs a targeted crawl campaign and
// reports the duration/viewer distribution statistics of Fig. 2(a).
func BenchmarkFigure2aDurationViewers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunUsageStudy(UsageStudyConfig{
			Concurrent:  800,
			DeepCrawls:  1,
			CrawlGap:    time.Hour,
			CampaignDur: 2 * time.Hour,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		completed := res.Targeted.CompletedRecords()
		var durs, viewers []float64
		for _, r := range completed {
			durs = append(durs, r.Duration().Minutes())
			if len(r.ViewerSamples) > 0 {
				viewers = append(viewers, r.AvgViewers())
			}
		}
		if len(durs) == 0 {
			b.Fatal("no completed broadcasts")
		}
		b.ReportMetric(stats.Median(durs), "median-duration-min")
		under20 := 0
		for _, v := range viewers {
			if v < 20 {
				under20++
			}
		}
		if len(viewers) > 0 {
			b.ReportMetric(float64(under20)/float64(len(viewers))*100, "pct-under-20-viewers")
		}
	}
}

// BenchmarkFigure2bDiurnal reproduces the local-hour viewer pattern and
// reports the slump-vs-evening contrast.
func BenchmarkFigure2bDiurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunUsageStudy(UsageStudyConfig{
			Concurrent:  800,
			DeepCrawls:  1,
			CrawlGap:    time.Hour,
			CampaignDur: 3 * time.Hour,
			Seed:        int64(i + 7),
		})
		if err != nil {
			b.Fatal(err)
		}
		f := res.Figure2b
		if len(f.Series) == 0 || len(f.Series[0].X) == 0 {
			b.Fatal("empty diurnal figure")
		}
		var night, evening float64
		var nightN, eveningN int
		for j, h := range f.Series[0].X {
			v := f.Series[0].Y[j]
			if h >= 3 && h <= 6 {
				night += v
				nightN++
			}
			if h >= 19 && h <= 23 {
				evening += v
				eveningN++
			}
		}
		if nightN > 0 && eveningN > 0 {
			b.ReportMetric(evening/float64(eveningN)/(night/float64(nightN)), "evening-over-night")
		}
	}
}

// --- Figure 3 ---

// BenchmarkFigure3aStallRatioCDF simulates the unlimited RTMP dataset and
// reports the stall-free share and the single-stall band mass.
func BenchmarkFigure3aStallRatioCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for seed := int64(0); seed < 400; seed++ {
			cfg := player.DefaultSimConfig(seed + int64(i)*1000)
			m := player.SimulateRTMP(cfg)
			ratios = append(ratios, m.StallRatio)
		}
		stallFree, band := 0, 0
		for _, r := range ratios {
			if r == 0 {
				stallFree++
			}
			if r >= 0.05 && r <= 0.09 {
				band++
			}
		}
		b.ReportMetric(float64(stallFree)/float64(len(ratios))*100, "pct-stall-free")
		b.ReportMetric(float64(band)/float64(len(ratios))*100, "pct-in-0.05-0.09-band")
	}
}

// BenchmarkFigure3bStallVsBandwidth sweeps the tc-style limits and reports
// mean stall ratios at the boundary points.
func BenchmarkFigure3bStallVsBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mean := func(mbps float64) float64 {
			var sum float64
			const n = 80
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*977)
				cfg.BandwidthBps = mbps * 1e6
				// RTMP broadcasts approach the 100-viewer boundary; their
				// chats add ~1-1.5 Mbps of avatar traffic (§5.1), which is
				// what pushes the stall boundary to 2 Mbps.
				cfg.Viewers = 80
				sum += player.SimulateRTMP(cfg).StallRatio
			}
			return sum / n
		}
		b.ReportMetric(mean(0.5), "stall-ratio-0.5Mbps")
		b.ReportMetric(mean(1), "stall-ratio-1Mbps")
		b.ReportMetric(mean(2), "stall-ratio-2Mbps")
		b.ReportMetric(mean(4), "stall-ratio-4Mbps")
	}
}

// --- Figure 4 ---

// BenchmarkFigure4aJoinTime reports median join time at the sweep points.
func BenchmarkFigure4aJoinTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		med := func(mbps float64) float64 {
			var xs []float64
			for seed := int64(0); seed < 60; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*1303)
				cfg.BandwidthBps = mbps * 1e6
				cfg.Viewers = 60 // typical watched RTMP broadcast with chat
				xs = append(xs, player.SimulateRTMP(cfg).JoinTime.Seconds())
			}
			return stats.Median(xs)
		}
		b.ReportMetric(med(0.5), "join-s-0.5Mbps")
		b.ReportMetric(med(2), "join-s-2Mbps")
		b.ReportMetric(med(0), "join-s-unlimited")
	}
}

// BenchmarkFigure4bPlaybackLatency reports median playback latency.
func BenchmarkFigure4bPlaybackLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		med := func(mbps float64) float64 {
			var xs []float64
			for seed := int64(0); seed < 60; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*509)
				cfg.BandwidthBps = mbps * 1e6
				cfg.Viewers = 60
				xs = append(xs, player.SimulateRTMP(cfg).PlaybackLatency.Seconds())
			}
			return stats.Median(xs)
		}
		b.ReportMetric(med(0.5), "latency-s-0.5Mbps")
		b.ReportMetric(med(0), "latency-s-unlimited")
	}
}

// --- Figure 5 ---

// BenchmarkFigure5DeliveryLatency compares delivery latency across the
// protocols on unlimited links.
func BenchmarkFigure5DeliveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rtmpVals, hlsVals []float64
		for seed := int64(0); seed < 150; seed++ {
			cfg := player.DefaultSimConfig(seed + int64(i)*7919)
			rtmpVals = append(rtmpVals, player.SimulateRTMP(cfg).DeliveryLatency.Seconds())
			hlsVals = append(hlsVals, player.SimulateHLS(cfg).DeliveryLatency.Seconds())
		}
		b.ReportMetric(stats.Quantile(rtmpVals, 0.75)*1000, "rtmp-p75-ms")
		b.ReportMetric(stats.Mean(hlsVals), "hls-mean-s")
	}
}

// --- Figure 6 ---

// BenchmarkFigure6aBitrateCDF analyzes a capture corpus and reports the
// per-protocol bitrate medians.
func BenchmarkFigure6aBitrateCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mediaanalysis.DefaultCorpusConfig()
		cfg.Videos = 30
		cfg.CaptureDur = 20 * time.Second
		cfg.Seed = int64(i + 1)
		rtmp, hlsSegs, _ := mediaanalysis.CorpusReports(cfg)
		med := func(reps []mediaanalysis.Report) float64 {
			var xs []float64
			for _, r := range reps {
				xs = append(xs, r.BitrateBps/1000)
			}
			return stats.Median(xs)
		}
		b.ReportMetric(med(rtmp), "rtmp-median-kbps")
		b.ReportMetric(med(hlsSegs), "hls-median-kbps")
	}
}

// BenchmarkFigure6bQPvsBitrate reports the QP range and the bitrate spread
// within a QP band (the scatter's key property).
func BenchmarkFigure6bQPvsBitrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mediaanalysis.DefaultCorpusConfig()
		cfg.Videos = 30
		cfg.CaptureDur = 20 * time.Second
		cfg.Seed = int64(i + 42)
		rtmp, hlsSegs, _ := mediaanalysis.CorpusReports(cfg)
		all := append(append([]mediaanalysis.Report{}, rtmp...), hlsSegs...)
		var qps, bandRates []float64
		for _, r := range all {
			qps = append(qps, r.AvgQP)
			if r.AvgQP >= 22 && r.AvgQP <= 32 {
				bandRates = append(bandRates, r.BitrateBps)
			}
		}
		b.ReportMetric(stats.Mean(qps), "mean-qp")
		if len(bandRates) > 2 {
			b.ReportMetric(stats.Max(bandRates)/stats.Min(bandRates), "bitrate-spread-at-same-qp")
		}
	}
}

// --- Figure 7 ---

// BenchmarkFigure7Power evaluates the seven scenarios on both networks and
// reports the worst relative error against the paper's bars.
func BenchmarkFigure7Power(b *testing.B) {
	m := power.NewModel()
	paper := power.PaperValues()
	for i := 0; i < b.N; i++ {
		scns := power.StandardScenarios(time.Minute)
		worst := 0.0
		for _, s := range scns {
			for _, nw := range []power.Network{power.WiFi, power.LTE} {
				got := m.Average(s, nw)
				want := paper[s.Name][nw]
				rel := (got - want) / want
				if rel < 0 {
					rel = -rel
				}
				if rel > worst {
					worst = rel
				}
			}
		}
		b.ReportMetric(worst*100, "worst-error-pct")
		chatOn := m.Average(scns[5], power.WiFi)
		chatOff := m.Average(scns[4], power.WiFi)
		b.ReportMetric(chatOn-chatOff, "chat-delta-mW-wifi")
	}
}

// --- In-text findings ---

// BenchmarkSection52FramePatterns reports the frame-pattern shares and
// I-frame period.
func BenchmarkSection52FramePatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mediaanalysis.DefaultCorpusConfig()
		cfg.Videos = 100
		cfg.CaptureDur = 10 * time.Second
		cfg.Seed = int64(i + 3)
		rtmp, _, segDurs := mediaanalysis.CorpusReports(cfg)
		ip, ibp := 0, 0
		var iPeriods []float64
		for _, r := range rtmp {
			switch r.Pattern {
			case mediaanalysis.PatternIP:
				ip++
			case mediaanalysis.PatternIBP:
				ibp++
			}
			if r.IPeriod > 0 {
				iPeriods = append(iPeriods, r.IPeriod)
			}
		}
		b.ReportMetric(float64(ip)/float64(len(rtmp))*100, "ip-only-pct")
		b.ReportMetric(stats.Mean(iPeriods), "i-period-frames")
		var near36 int
		for _, d := range segDurs {
			if d >= 3400*time.Millisecond && d <= 3900*time.Millisecond {
				near36++
			}
		}
		if len(segDurs) > 0 {
			b.ReportMetric(float64(near36)/float64(len(segDurs))*100, "segdur-3.6s-pct")
		}
	}
}

// BenchmarkChatTraffic reproduces the §5.1 chat-traffic finding: aggregate
// rate with chat on vs off.
func BenchmarkChatTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rate := func(visible bool) float64 {
			var bytes int64
			const n = 40
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*31)
				cfg.Viewers = 380 // active chat room
				cfg.ChatVisible = visible
				m := player.SimulateRTMP(cfg)
				bytes += m.Bytes
			}
			return float64(bytes) * 8 / (n * cfg60().Seconds()) / 1000
		}
		off := rate(false)
		on := rate(true) + avgChatOverheadKbps(int64(i))
		b.ReportMetric(off, "video-only-kbps")
		b.ReportMetric(on, "with-chat-kbps")
	}
}

func cfg60() time.Duration { return 60 * time.Second }

// avgChatOverheadKbps estimates the avatar-download rate the viewer's link
// carries for an active chat (the video bytes above exclude it).
func avgChatOverheadKbps(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	// ~95 chatters * 0.2 msg/s * 0.7 avatar fraction * ~47.5 KB.
	_ = rng
	return 95 * 0.2 * 0.7 * 47.5 * 8
}

// BenchmarkProtocolSelection reports the HLS session share and the
// per-protocol viewer means (the ~100-viewer boundary).
func BenchmarkProtocolSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := qoeRecords(b, 600, 0)
		var hlsN, rtmpN, hlsV, rtmpV float64
		for _, r := range recs {
			if r.Protocol == "HLS" {
				hlsN++
				hlsV += float64(r.Viewers)
			} else {
				rtmpN++
				rtmpV += float64(r.Viewers)
			}
		}
		if hlsN > 0 {
			b.ReportMetric(hlsV/hlsN, "hls-mean-viewers")
		}
		if rtmpN > 0 {
			b.ReportMetric(rtmpV/rtmpN, "rtmp-mean-viewers")
		}
		b.ReportMetric(hlsN/(hlsN+rtmpN)*100, "hls-session-pct")
	}
}

// BenchmarkWelchDeviceComparison reports the S3-vs-S4 t-test p-values.
func BenchmarkWelchDeviceComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := session.DefaultCampaignConfig()
		cfg.UnlimitedSessions = 600
		cfg.LimitsMbps = nil
		cfg.PopTarget = 800
		cfg.Seed = int64(i + 1)
		recs := session.NewCampaign(cfg).Run()
		var fpsA, fpsB, stallA, stallB []float64
		for _, r := range recs {
			if r.Device == session.GalaxyS3.Name {
				fpsA = append(fpsA, r.MeasuredFPS)
				stallA = append(stallA, r.Metrics.StallRatio)
			} else {
				fpsB = append(fpsB, r.MeasuredFPS)
				stallB = append(stallB, r.Metrics.StallRatio)
			}
		}
		if fpsT, err := stats.WelchTTest(fpsA, fpsB); err == nil {
			b.ReportMetric(fpsT.P, "fps-p-value")
		}
		if stallT, err := stats.WelchTTest(stallA, stallB); err == nil {
			b.ReportMetric(stallT.P, "stall-p-value")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSegmentDuration sweeps the HLS segment target.
func BenchmarkAblationSegmentDuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, target := range []time.Duration{2 * time.Second, 3600 * time.Millisecond, 6 * time.Second} {
			var lat float64
			var stalls int
			const n = 50
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*131)
				cfg.SegmentTarget = target
				m := player.SimulateHLS(cfg)
				lat += m.DeliveryLatency.Seconds()
				stalls += m.StallCount
			}
			b.ReportMetric(lat/n, fmt.Sprintf("delivery-s-T%.1f", target.Seconds()))
			b.ReportMetric(float64(stalls)/n, fmt.Sprintf("stalls-T%.1f", target.Seconds()))
		}
	}
}

// BenchmarkAblationStartupBuffer sweeps the RTMP startup buffer depth.
func BenchmarkAblationStartupBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, startup := range []time.Duration{400 * time.Millisecond, 1500 * time.Millisecond, 4 * time.Second} {
			var join, stallSec float64
			const n = 60
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*611)
				cfg.BroadcasterGapProb = 0.4
				m := player.SimulateRTMPWithEngine(cfg, player.Engine{Startup: startup, Resume: startup})
				join += m.JoinTime.Seconds()
				stallSec += m.StallTime.Seconds()
			}
			s := startup.Seconds()
			b.ReportMetric(join/n, fmt.Sprintf("join-s-buf%.1f", s))
			b.ReportMetric(stallSec/n, fmt.Sprintf("stall-s-buf%.1f", s))
		}
	}
}

// BenchmarkAblationLiveEdgeOffset sweeps how far behind live the HLS
// player starts.
func BenchmarkAblationLiveEdgeOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, off := range []int{0, 2, 4} {
			var lat float64
			var stalls int
			const n = 50
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*733)
				cfg.LiveEdgeOffset = off
				cfg.BroadcasterGapProb = 0.4
				m := player.SimulateHLS(cfg)
				lat += m.DeliveryLatency.Seconds()
				stalls += m.StallCount
			}
			b.ReportMetric(lat/n, fmt.Sprintf("delivery-s-edge%d", off))
			b.ReportMetric(float64(stalls)/n, fmt.Sprintf("stalls-edge%d", off))
		}
	}
}

// BenchmarkAblationAvatarCache quantifies the caching mitigation the paper
// proposes for the chat traffic/energy overhead.
func BenchmarkAblationAvatarCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(cache bool) float64 {
			var stalls int
			const n = 60
			for seed := int64(0); seed < n; seed++ {
				cfg := player.DefaultSimConfig(seed + int64(i)*389)
				cfg.BandwidthBps = 1e6
				cfg.Viewers = 300
				cfg.AvatarCache = cache
				stalls += player.SimulateRTMP(cfg).StallCount
			}
			return float64(stalls) / n
		}
		b.ReportMetric(run(false), "stalls-no-cache")
		b.ReportMetric(run(true), "stalls-with-cache")
	}
}

// BenchmarkAblationDRXTail sweeps the LTE DRX tail length in the power
// model.
func BenchmarkAblationDRXTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scn := power.StandardScenarios(time.Minute)[1] // app-on: bursty
		for _, tail := range []time.Duration{500 * time.Millisecond, 2500 * time.Millisecond, 5 * time.Second} {
			m := power.NewModel()
			m.LTE.Tail = tail
			b.ReportMetric(m.Average(scn, power.LTE), fmt.Sprintf("appon-mW-tail%.1fs", tail.Seconds()))
		}
	}
}

// --- Protocol substrate micro-benchmarks ---

// BenchmarkRTMPChunkThroughput measures chunk-layer mux+demux throughput
// in relay steady state: the consumed payload buffer is recycled into the
// chunk layer's pool, as the connection layer does for messages it fully
// consumes. (internal/rtmp has split write/read/no-recycle benchmarks.)
func BenchmarkRTMPChunkThroughput(b *testing.B) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		cw := rtmp.NewChunkWriter(&buf)
		if err := cw.WriteMessage(7, rtmp.Message{TypeID: rtmp.TypeVideo, Timestamp: uint32(i), Payload: payload}); err != nil {
			b.Fatal(err)
		}
		cr := rtmp.NewChunkReader(&buf)
		msg, err := cr.ReadMessage()
		if err != nil {
			b.Fatal(err)
		}
		rtmp.RecycleMessagePayload(msg.Payload)
	}
}

// BenchmarkTSMuxDemux measures MPEG-TS packaging throughput.
func BenchmarkTSMuxDemux(b *testing.B) {
	frame := make([]byte, 8000)
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		m := mpegts.NewMuxer()
		m.WriteVideo(time.Duration(i)*time.Millisecond, 0, true, frame)
		if _, err := mpegts.DemuxAll(m.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMFMarshal measures command-message encoding.
func BenchmarkAMFMarshal(b *testing.B) {
	obj := amf.Object{"app": "live", "tcUrl": "rtmp://vidman.periscope.tv/live", "capabilities": 15.0}
	for i := 0; i < b.N; i++ {
		buf, err := amf.Marshal("connect", 1.0, obj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := amf.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderFrame measures synthetic encoding with real NAL output.
func BenchmarkEncoderFrame(b *testing.B) {
	cfg := media.DefaultEncoderConfig()
	enc := media.NewEncoder(cfg, time.Unix(0, 0))
	for i := 0; i < b.N; i++ {
		f := enc.NextFrame()
		if len(f.NALs) == 0 && !f.Dropped {
			b.Fatal("no NALs")
		}
	}
}

// BenchmarkSliceHeaderParse measures QP extraction from slices.
func BenchmarkSliceHeaderParse(b *testing.B) {
	sps := avc.DefaultSPS()
	nal := avc.MarshalSlice(avc.SliceHeader{Type: avc.SliceP, FrameNum: 3, QPDelta: 2}, sps, make([]byte, 1200))
	for i := 0; i < b.N; i++ {
		if _, err := avc.ParseSliceHeader(nal, sps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSimulation measures full 60-second session simulations
// per second (the fast tier's core operation).
func BenchmarkSessionSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := player.DefaultSimConfig(int64(i))
		if m := player.SimulateRTMP(cfg); m.Delivered == 0 {
			b.Fatal("empty session")
		}
	}
}

// BenchmarkFigure1DeepCrawl measures one complete deep crawl and reports
// the Fig. 1 discovery statistics.
func BenchmarkFigure1DeepCrawl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pc := broadcastmodel.DefaultConfig()
		pc.TargetConcurrent = 800
		pc.Seed = int64(i + 1)
		pop := broadcastmodel.New(pc, time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC))
		srv := api.NewServer(pop, nil, api.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		cli := api.NewClient("http://"+ln.Addr().String(), "bench", nil)
		pacer := func(d time.Duration) { pop.Advance(d) }
		b.StartTimer()

		res, err := crawler.DeepCrawl(cli, crawler.DefaultDeepConfig(), pacer)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(res.TotalFound()), "broadcasts-found")
		b.ReportMetric(float64(len(res.Areas)), "areas-queried")
		b.ReportMetric(res.TopAreaShare(0.5)*100, "top-half-share-pct")
		hs.Close()
		b.StartTimer()
	}
}
