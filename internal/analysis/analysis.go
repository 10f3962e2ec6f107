// Package analysis assembles the paper's tables and figures from the
// measurement outputs: it converts crawl records, session records, media
// reports and power scenarios into plot-ready series, and renders them as
// ASCII or CSV. Every figure builder corresponds to one artefact of the
// paper's evaluation; the benchmark harness in the repository root invokes
// these builders to regenerate each figure.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"periscope/internal/crawler"
	"periscope/internal/geo"
	"periscope/internal/hls"
	"periscope/internal/mediaanalysis"
	"periscope/internal/power"
	"periscope/internal/service"
	"periscope/internal/session"
	"periscope/internal/stats"
)

// Series is one named line/point set of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a plot-ready artefact.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// CSV renders the figure as comma-separated series blocks.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "# series: %s (%s vs %s)\n", s.Name, f.XLabel, f.YLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "%g,%g\n", s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// ASCII renders a coarse text plot (good enough to eyeball shapes in CI
// logs and EXPERIMENTS.md).
func (f Figure) ASCII() string {
	const width, height = 64, 16
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	var minX, maxX, minY, maxY float64
	first := true
	for _, s := range f.Series {
		for i := range s.X {
			if first {
				minX, maxX, minY, maxY = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			minX = min(minX, s.X[i])
			maxX = max(maxX, s.X[i])
			minY = min(minY, s.Y[i])
			maxY = max(maxY, s.Y[i])
		}
	}
	if first || maxX == minX || maxY == minY {
		b.WriteString("(no data)\n")
		return b.String()
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			px := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			py := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-py][px] = mark
		}
	}
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "   x: %s [%.3g .. %.3g]   y: %s [%.3g .. %.3g]\n",
		f.XLabel, minX, maxX, f.YLabel, minY, maxY)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "   %c = %s\n", marks[si%len(marks)], s.Name)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Table is a textual table artefact (Table 1, Fig. 7).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		fmt.Fprintf(&b, "|%s", strings.Repeat("-", w+2))
		_ = i
	}
	b.WriteString("|\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// cdfSeries converts samples into CDF points.
func cdfSeries(name string, samples []float64) Series {
	c := stats.NewCDF(samples)
	xs, fs := c.Points()
	return Series{Name: name, X: xs, Y: fs}
}

// Table1 reproduces Table 1: the relevant Periscope API commands.
func Table1() Table {
	return Table{
		ID:     "Table 1",
		Title:  "Relevant Periscope API commands",
		Header: []string{"API request", "request contents", "response contents"},
		Rows: [][]string{
			{"mapGeoBroadcastFeed", "Coordinates of a rectangle shaped geographical area", "List of broadcasts located inside the area"},
			{"getBroadcasts", "List of 13-character broadcast IDs", "Descriptions of broadcast IDs (incl. nb of viewers)"},
			{"playbackMeta", "Playback statistics", "nothing"},
		},
	}
}

// Figure1 builds the cumulative-discovery curves from deep crawls: (a)
// absolute counts, (b) both axes normalised to percent.
func Figure1(crawls []*crawler.DeepResult) (abs, rel Figure) {
	abs = Figure{ID: "Figure 1(a)", Title: "Cumulative broadcasts discovered per crawled area",
		XLabel: "areas queried", YLabel: "live broadcasts found"}
	rel = Figure{ID: "Figure 1(b)", Title: "Cumulative broadcasts discovered (relative)",
		XLabel: "areas queried (%)", YLabel: "live broadcasts found (%)"}
	for i, c := range crawls {
		name := fmt.Sprintf("crawl %d", i+1)
		var xs, ys, xr, yr []float64
		total := float64(c.TotalFound())
		n := float64(len(c.Cumulative))
		for j, v := range c.Cumulative {
			xs = append(xs, float64(j+1))
			ys = append(ys, float64(v))
			xr = append(xr, float64(j+1)/n*100)
			yr = append(yr, float64(v)/total*100)
		}
		abs.Series = append(abs.Series, Series{Name: name, X: xs, Y: ys})
		rel.Series = append(rel.Series, Series{Name: name, X: xr, Y: yr})
		abs.Notes = append(abs.Notes, fmt.Sprintf("%s: %d areas, %d broadcasts, top-half share %.0f%%",
			name, len(c.Areas), c.TotalFound(), c.TopAreaShare(0.5)*100))
	}
	return abs, rel
}

// Figure2a builds the duration and average-viewer CDFs from a targeted
// crawl (x in minutes / viewers, log-scaled by the caller's plotting).
func Figure2a(records []*crawler.TrackRecord) Figure {
	var durations, viewers []float64
	for _, r := range records {
		d := r.Duration().Minutes()
		if d > 0 {
			durations = append(durations, d)
		}
		if len(r.ViewerSamples) > 0 {
			viewers = append(viewers, r.AvgViewers())
		}
	}
	f := Figure{ID: "Figure 2(a)", Title: "Broadcast duration and average viewers",
		XLabel: "duration (min) / avg viewers", YLabel: "fraction of broadcasts"}
	f.Series = append(f.Series, cdfSeries("duration", durations), cdfSeries("viewers", viewers))
	f.Notes = append(f.Notes,
		fmt.Sprintf("median duration %.1f min", stats.Median(durations)),
		fmt.Sprintf("share of tracked broadcasts with <20 avg viewers: %.0f%%",
			fracBelow(viewers, 20)*100))
	return f
}

func fracBelow(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Figure2b builds average viewers per broadcast against the broadcaster's
// local start hour.
func Figure2b(records []*crawler.TrackRecord) Figure {
	sums := make([]float64, 24)
	counts := make([]float64, 24)
	for _, r := range records {
		if len(r.ViewerSamples) == 0 || !r.Desc.LocationDisclosed {
			continue
		}
		utcHour := float64(r.StartTime.UTC().Hour()) + float64(r.StartTime.UTC().Minute())/60
		lh := int(geo.LocalHour(utcHour, r.Desc.Longitude))
		sums[lh] += r.AvgViewers()
		counts[lh]++
	}
	var xs, ys []float64
	for h := 0; h < 24; h++ {
		if counts[h] == 0 {
			continue
		}
		xs = append(xs, float64(h))
		ys = append(ys, sums[h]/counts[h])
	}
	return Figure{ID: "Figure 2(b)", Title: "Average viewers vs local start hour",
		XLabel: "local time of day (h)", YLabel: "avg viewers per broadcast",
		Series: []Series{{Name: "viewers", X: xs, Y: ys}}}
}

// Figure3a builds the stall-ratio CDF for unlimited RTMP sessions.
func Figure3a(recs []session.Record) Figure {
	var ratios []float64
	for _, r := range session.Filter(recs, "RTMP", 0) {
		ratios = append(ratios, r.Metrics.StallRatio)
	}
	f := Figure{ID: "Figure 3(a)", Title: "Stall ratio CDF, RTMP, no bandwidth limit",
		XLabel: "stall ratio", YLabel: "fraction of broadcasts",
		Series: []Series{cdfSeries("RTMP", ratios)}}
	f.Notes = append(f.Notes,
		fmt.Sprintf("%.0f%% of sessions stall-free", fracBelow(ratios, 1e-9)*100),
		fmt.Sprintf("share in the 0.05-0.09 single-stall band: %.0f%%",
			(fracBelow(ratios, 0.09)-fracBelow(ratios, 0.05))*100))
	return f
}

// boxplotFigure renders per-bandwidth boxplot statistics as five series
// (min/q1/med/q3/max whisker summary).
func boxplotFigure(id, title, ylabel string, recs []session.Record, metric func(session.Record) float64) Figure {
	groups := map[float64][]float64{}
	for _, r := range recs {
		groups[r.BandwidthMbps] = append(groups[r.BandwidthMbps], metric(r))
	}
	var limits []float64
	for l := range groups {
		limits = append(limits, l)
	}
	sort.Float64s(limits)
	names := []string{"whiskerLo", "q1", "median", "q3", "whiskerHi"}
	series := make([]Series, len(names))
	for i := range series {
		series[i].Name = names[i]
	}
	f := Figure{ID: id, Title: title, XLabel: "bandwidth limit (Mbps; 100=unlimited)", YLabel: ylabel}
	for _, l := range limits {
		b, err := stats.Boxplot(groups[l])
		if err != nil {
			continue
		}
		x := l
		if x == 0 {
			x = 100 // the paper plots the unlimited case as "100"
		}
		vals := []float64{b.WhiskerLo, b.Q1, b.Med, b.Q3, b.WhiskerHi}
		for i := range series {
			series[i].X = append(series[i].X, x)
			series[i].Y = append(series[i].Y, vals[i])
		}
	}
	f.Series = series
	return f
}

// Figure3b builds stall ratio vs bandwidth limit for RTMP sessions.
func Figure3b(recs []session.Record) Figure {
	return boxplotFigure("Figure 3(b)", "Stall ratio vs bandwidth limit (RTMP)", "stall ratio",
		session.Filter(recs, "RTMP", -1),
		func(r session.Record) float64 { return r.Metrics.StallRatio })
}

// Figure4a builds join time vs bandwidth limit.
func Figure4a(recs []session.Record) Figure {
	return boxplotFigure("Figure 4(a)", "Join time vs bandwidth limit (RTMP)", "join time (s)",
		session.Filter(recs, "RTMP", -1),
		func(r session.Record) float64 { return r.Metrics.JoinTime.Seconds() })
}

// Figure4b builds playback latency vs bandwidth limit.
func Figure4b(recs []session.Record) Figure {
	return boxplotFigure("Figure 4(b)", "Playback latency vs bandwidth limit (RTMP)", "playback latency (s)",
		session.Filter(recs, "RTMP", -1),
		func(r session.Record) float64 { return r.Metrics.PlaybackLatency.Seconds() })
}

// Figure5 builds the delivery-latency CDFs for unlimited sessions.
func Figure5(recs []session.Record) Figure {
	var rtmp, hls []float64
	for _, r := range session.Filter(recs, "", 0) {
		v := r.Metrics.DeliveryLatency.Seconds()
		if r.Protocol == "RTMP" {
			rtmp = append(rtmp, v)
		} else {
			hls = append(hls, v)
		}
	}
	f := Figure{ID: "Figure 5", Title: "Video delivery latency CDF",
		XLabel: "video delivery latency (s)", YLabel: "fraction of broadcasts",
		Series: []Series{cdfSeries("HLS", hls), cdfSeries("RTMP", rtmp)}}
	if len(rtmp) > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf("RTMP p75 = %.3f s (paper: <0.3 s)", stats.Quantile(rtmp, 0.75)))
	}
	if len(hls) > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf("HLS mean = %.2f s (paper: >5 s)", stats.Mean(hls)))
	}
	return f
}

// Figure6a builds the per-video bitrate CDFs from capture analysis.
func Figure6a(rtmp, hlsSegs []mediaanalysis.Report) Figure {
	toMbit := func(reps []mediaanalysis.Report) []float64 {
		var out []float64
		for _, r := range reps {
			out = append(out, r.BitrateBps/1e6)
		}
		return out
	}
	return Figure{ID: "Figure 6(a)", Title: "Video bitrate CDF",
		XLabel: "bitrate (Mbit/s)", YLabel: "fraction of videos",
		Series: []Series{cdfSeries("HLS", toMbit(hlsSegs)), cdfSeries("RTMP", toMbit(rtmp))}}
}

// Figure6b builds the QP-vs-bitrate scatter.
func Figure6b(rtmp, hlsSegs []mediaanalysis.Report) Figure {
	var xs, ys []float64
	for _, r := range append(append([]mediaanalysis.Report{}, rtmp...), hlsSegs...) {
		xs = append(xs, r.BitrateBps/1e6)
		ys = append(ys, r.AvgQP)
	}
	return Figure{ID: "Figure 6(b)", Title: "Average QP vs bitrate per captured video",
		XLabel: "bitrate (Mbit/s)", YLabel: "avg QP",
		Series: []Series{{Name: "videos", X: xs, Y: ys}}}
}

// Figure7 builds the power table for the standard scenarios.
func Figure7(dur time.Duration) Table {
	m := power.NewModel()
	paper := power.PaperValues()
	t := Table{
		ID:     "Figure 7",
		Title:  "Average power consumption (mW), model vs paper",
		Header: []string{"scenario", "WiFi model", "WiFi paper", "LTE model", "LTE paper"},
	}
	for _, s := range power.StandardScenarios(dur) {
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%.0f", m.Average(s, power.WiFi)),
			fmt.Sprintf("%.0f", paper[s.Name][power.WiFi]),
			fmt.Sprintf("%.0f", m.Average(s, power.LTE)),
			fmt.Sprintf("%.0f", paper[s.Name][power.LTE]),
		})
	}
	return t
}

// Section52Stats summarises the in-text §5.2 statistics.
func Section52Stats(rtmp, hlsSegs []mediaanalysis.Report, segDurs []time.Duration) Table {
	pattern := func(reps []mediaanalysis.Report, p mediaanalysis.FramePattern) float64 {
		if len(reps) == 0 {
			return 0
		}
		n := 0
		for _, r := range reps {
			if r.Pattern == p {
				n++
			}
		}
		return float64(n) / float64(len(reps)) * 100
	}
	var iPeriods []float64
	for _, r := range rtmp {
		if r.IPeriod > 0 {
			iPeriods = append(iPeriods, r.IPeriod)
		}
	}
	var durSecs []float64
	for _, d := range segDurs {
		durSecs = append(durSecs, d.Seconds())
	}
	in36 := 0
	for _, d := range durSecs {
		if d >= 3.4 && d <= 3.9 {
			in36++
		}
	}
	mode36 := 0.0
	if len(durSecs) > 0 {
		mode36 = float64(in36) / float64(len(durSecs)) * 100
	}
	return Table{
		ID:     "Section 5.2",
		Title:  "Audio/video stream statistics, measured vs paper",
		Header: []string{"statistic", "measured", "paper"},
		Rows: [][]string{
			{"RTMP IP-only share", fmt.Sprintf("%.1f%%", pattern(rtmp, mediaanalysis.PatternIP)), "20.0%"},
			{"HLS IP-only share", fmt.Sprintf("%.1f%%", pattern(hlsSegs, mediaanalysis.PatternIP)), "18.4%"},
			{"mean I-frame period", fmt.Sprintf("%.1f frames", stats.Mean(iPeriods)), "~36 frames"},
			{"segments at ~3.6 s", fmt.Sprintf("%.0f%%", mode36), "60%"},
			{"segment duration range", fmt.Sprintf("%.1f-%.1f s", stats.Quantile(durSecs, 0.02), stats.Quantile(durSecs, 0.98)), "3-6 s"},
			{"audio", "AAC 44.1 kHz VBR 32/64 kbps", "same"},
			{"resolution", "320x568 (either orientation)", "always 320x568"},
		},
	}
}

// DeliveryTable renders a service delivery-plane snapshot: the RTMP
// fan-out counters (drops, resyncs, hopeless disconnects) next to the CDN
// origin/edge fill metrics (peer vs origin fills, coalesced requests,
// playlist staleness, warm-ups, evictions) — the operational view of the
// geo-placed Fastly-style delivery the paper measured from the outside.
func DeliveryTable(snap service.Snapshot) Table {
	t := Table{
		ID:     "Delivery",
		Title:  "Service delivery-plane snapshot",
		Header: []string{"tier", "metric", "value"},
	}
	add := func(tier, metric, value string) {
		t.Rows = append(t.Rows, []string{tier, metric, value})
	}
	d := snap.Delivery
	add("fan-out", "live hubs", fmt.Sprintf("%d", d.LiveHubs))
	add("fan-out", "attached viewers", fmt.Sprintf("%d", d.Viewers))
	add("fan-out", "queue drops", fmt.Sprintf("%d", d.Drops))
	add("fan-out", "keyframe resyncs", fmt.Sprintf("%d", d.Resyncs))
	add("fan-out", "hopeless disconnects", fmt.Sprintf("%d", d.HopelessDisconnects))
	o := snap.Origin
	origin := "origin"
	if o.Region != "" {
		origin = fmt.Sprintf("origin (%s)", o.Region)
	}
	add(origin, "registered broadcasts", fmt.Sprintf("%d", o.Broadcasts))
	add(origin, "fill requests (playlist/segment)",
		fmt.Sprintf("%d (%d/%d)", o.Requests, o.PlaylistRequests, o.SegmentRequests))
	add(origin, "fill bytes", fmt.Sprintf("%d", o.Bytes))
	for _, p := range snap.POPs {
		tier := fmt.Sprintf("pop %d", p.Index)
		if p.Region != "" {
			tier = fmt.Sprintf("pop %d (%s)", p.Index, p.Region)
		}
		add(tier, "viewer requests", fmt.Sprintf("%d", p.Requests))
		add(tier, "viewer bytes", fmt.Sprintf("%d", p.Bytes))
		health := p.Health
		if health == "" {
			health = "ok"
		}
		add(tier, "health", fmt.Sprintf("%s (windowed fill error rate %.2f)", health, p.FillErrorRate))
		if p.OriginBreaker != "" {
			add(tier, "breakers", fmt.Sprintf("origin %s, %d peer open (%d trips, %d rejects)",
				p.OriginBreaker, p.PeerBreakersOpen, p.BreakerTrips, p.BreakerRejects))
		}
		add(tier, "fill retries / negative hits", fmt.Sprintf("%d / %d", p.FillRetries, p.NegativeHits))
		add(tier, "failover re-routes", fmt.Sprintf("%d", p.Reroutes))
		add(tier, "replicas / cached segments", fmt.Sprintf("%d / %d", p.Broadcasts, p.CachedSegments))
		add(tier, "segment fills", fmt.Sprintf("%d (%d B, %d errors)", p.Fills, p.FillBytes, p.FillErrors))
		add(tier, "peer fills / origin fills",
			fmt.Sprintf("%d / %d (%d probe misses, %d breaker skips)",
				p.PeerFills, p.OriginFills, p.PeerMisses, p.PeerSkips))
		add(tier, "peer serves", fmt.Sprintf("%d of %d probes (%d B out)",
			p.PeerServes, p.PeerRequests, p.PeerBytesOut))
		add(tier, "single-flight hits", fmt.Sprintf("%d", p.SingleFlightHits))
		add(tier, "warm-ups", fmt.Sprintf("%d", p.Warmups))
		add(tier, "fill cap waits", fmt.Sprintf("%d (cap %d)", p.FillCapWaits, hls.DefaultFillConcurrency))
		add(tier, "playlist fetches / stale serves",
			fmt.Sprintf("%d / %d", p.PlaylistRefreshes, p.StaleServes))
		add(tier, "evictions", fmt.Sprintf("%d", p.Evictions))
		add(tier, "max playlist age", p.MaxPlaylistAge.String())
	}
	c := snap.Chat
	add("chat", "rooms (open / opened / closed)",
		fmt.Sprintf("%d / %d / %d", c.Rooms, c.RoomsOpened, c.RoomsClosed))
	add("chat", "members (current / joined)", fmt.Sprintf("%d / %d", c.Members, c.MembersJoined))
	add("chat", "messages in / out", fmt.Sprintf("%d / %d", c.MessagesIn, c.MessagesOut))
	add("chat", "hearts (taps -> deltas)", fmt.Sprintf("%d -> %d", c.HeartTaps, c.HeartDeltas))
	add("chat", "presence updates", fmt.Sprintf("%d", c.PresenceUpdates))
	add("chat", "queue drops / hopeless / sampled out",
		fmt.Sprintf("%d / %d / %d", c.Drops, c.HopelessDisconnects, c.SampledOut))
	add("chat", "send-queue depth", fmt.Sprintf("%d", c.SendQueueDepth))
	return t
}
