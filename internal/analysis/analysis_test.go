package analysis

import (
	"strings"
	"testing"
	"time"

	"periscope/internal/crawler"
	"periscope/internal/hls"
	"periscope/internal/mediaanalysis"
	"periscope/internal/player"
	"periscope/internal/service"
	"periscope/internal/session"
)

func sampleRecords() []session.Record {
	var recs []session.Record
	for i := 0; i < 40; i++ {
		proto := "RTMP"
		if i%3 == 0 {
			proto = "HLS"
		}
		limit := 0.0
		if i%4 == 0 {
			limit = 2
		}
		recs = append(recs, session.Record{
			Protocol:      proto,
			BandwidthMbps: limit,
			Metrics: player.Metrics{
				Protocol:        proto,
				StallRatio:      float64(i%7) / 20,
				StallCount:      i % 3,
				JoinTime:        time.Duration(i%5) * time.Second,
				PlaybackLatency: time.Duration(2+i%4) * time.Second,
				DeliveryLatency: time.Duration(100+i*10) * time.Millisecond,
			},
		})
	}
	return recs
}

func TestTable1Renders(t *testing.T) {
	out := Table1().Render()
	for _, cmd := range []string{"mapGeoBroadcastFeed", "getBroadcasts", "playbackMeta"} {
		if !strings.Contains(out, cmd) {
			t.Errorf("Table 1 missing %s", cmd)
		}
	}
}

func TestFigure1FromDeepResults(t *testing.T) {
	res := &crawler.DeepResult{Cumulative: []int{40, 70, 90, 100}}
	abs, rel := Figure1([]*crawler.DeepResult{res})
	if len(abs.Series) != 1 || len(rel.Series) != 1 {
		t.Fatal("series missing")
	}
	if abs.Series[0].Y[3] != 100 {
		t.Errorf("absolute curve wrong: %v", abs.Series[0].Y)
	}
	if rel.Series[0].X[3] != 100 {
		t.Errorf("relative x must end at 100%%: %v", rel.Series[0].X)
	}
}

func TestFigure3aNotes(t *testing.T) {
	f := Figure3a(sampleRecords())
	if len(f.Series) != 1 || len(f.Series[0].X) == 0 {
		t.Fatal("empty figure")
	}
	if !strings.Contains(f.ASCII(), "Figure 3(a)") {
		t.Error("ASCII header missing")
	}
}

func TestBoxplotFigureGroups(t *testing.T) {
	f := Figure3b(sampleRecords())
	if len(f.Series) != 5 {
		t.Fatalf("want 5 boxplot series, got %d", len(f.Series))
	}
	// Unlimited must be plotted at x=100.
	foundUnlimited := false
	for _, x := range f.Series[2].X {
		if x == 100 {
			foundUnlimited = true
		}
	}
	if !foundUnlimited {
		t.Error("unlimited bucket not plotted at 100")
	}
	// Median <= Q3 everywhere.
	for i := range f.Series[2].Y {
		if f.Series[2].Y[i] > f.Series[3].Y[i] {
			t.Error("median above Q3")
		}
	}
}

func TestFigure5SeparatesProtocols(t *testing.T) {
	f := Figure5(sampleRecords())
	if len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(f.Series))
	}
}

func TestFigure6FromReports(t *testing.T) {
	rtmp := []mediaanalysis.Report{{BitrateBps: 300_000, AvgQP: 28}, {BitrateBps: 900_000, AvgQP: 30}}
	hls := []mediaanalysis.Report{{BitrateBps: 280_000, AvgQP: 27}}
	a := Figure6a(rtmp, hls)
	b := Figure6b(rtmp, hls)
	if len(a.Series) != 2 {
		t.Error("6a needs HLS and RTMP series")
	}
	if len(b.Series[0].X) != 3 {
		t.Errorf("6b scatter has %d points", len(b.Series[0].X))
	}
}

func TestFigure7Table(t *testing.T) {
	tbl := Figure7(time.Minute)
	if len(tbl.Rows) != 7 {
		t.Fatalf("want 7 scenarios, got %d", len(tbl.Rows))
	}
	out := tbl.Render()
	if !strings.Contains(out, "video-hls-chat-on") || !strings.Contains(out, "broadcast") {
		t.Error("scenarios missing from table")
	}
}

func TestCSVAndASCIIRender(t *testing.T) {
	f := Figure{
		ID: "T", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}},
	}
	csv := f.CSV()
	if !strings.Contains(csv, "1,1") {
		t.Errorf("csv = %q", csv)
	}
	ascii := f.ASCII()
	if !strings.Contains(ascii, "*") {
		t.Error("ascii plot has no points")
	}
	empty := Figure{ID: "E"}
	if !strings.Contains(empty.ASCII(), "no data") {
		t.Error("empty figure must say so")
	}
}

func TestSection52Table(t *testing.T) {
	rtmp := []mediaanalysis.Report{
		{Pattern: mediaanalysis.PatternIBP, IPeriod: 36},
		{Pattern: mediaanalysis.PatternIP, IPeriod: 36},
	}
	hls := []mediaanalysis.Report{{Pattern: mediaanalysis.PatternIBP}}
	durs := []time.Duration{3600 * time.Millisecond, 3700 * time.Millisecond, 5 * time.Second}
	tbl := Section52Stats(rtmp, hls, durs)
	out := tbl.Render()
	if !strings.Contains(out, "50.0%") { // RTMP IP-only share
		t.Errorf("table:\n%s", out)
	}
}

func TestDeliveryTableRenders(t *testing.T) {
	snap := service.Snapshot{
		Delivery: service.DeliverySnapshot{LiveHubs: 2, Viewers: 150, Drops: 12, Resyncs: 4, HopelessDisconnects: 1},
		Origin:   service.OriginSnapshot{Region: "us-east", Broadcasts: 2, Requests: 30, Bytes: 1 << 20, PlaylistRequests: 10, SegmentRequests: 20},
		POPs: []service.POPSnapshot{{
			Index: 0, Region: "us-west", Requests: 500, Bytes: 5 << 20, Broadcasts: 2, CachedSegments: 8,
			FillStats: hls.FillStats{
				Fills: 20, FillBytes: 1 << 20, SingleFlightHits: 480,
				PeerFills: 14, PeerFillBytes: 700_000, PeerMisses: 2, PeerSkips: 3, OriginFills: 6,
				Warmups: 2, FillCapWaits: 5,
				PlaylistRefreshes: 10, StaleServes: 3, Evictions: 6,
				FillRetries: 8, NegativeHits: 5,
			},
			PeerRequests: 9, PeerServes: 7, PeerBytesOut: 350_000,
			MaxPlaylistAge: 1700 * time.Millisecond,
			Health:         "degraded", FillErrorRate: 0.25,
			OriginBreaker: "half-open", PeerBreakersOpen: 1,
			BreakerTrips: 2, BreakerRejects: 40,
			Reroutes: 11,
		}},
	}
	out := DeliveryTable(snap).Render()
	for _, want := range []string{
		"hopeless disconnects", "single-flight hits", "stale serves",
		"max playlist age", "1.7s", "pop 0 (us-west)", "origin (us-east)",
		"peer fills / origin fills", "14 / 6 (2 probe misses, 3 breaker skips)",
		"peer serves", "7 of 9 probes", "warm-ups", "fill cap waits", "5 (cap 4)",
		"degraded (windowed fill error rate 0.25)",
		"origin half-open, 1 peer open (2 trips, 40 rejects)",
		"fill retries / negative hits", "8 / 5",
		"failover re-routes", "11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delivery table missing %q:\n%s", want, out)
		}
	}
}
