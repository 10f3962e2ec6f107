package session

import (
	"testing"
	"time"

	"periscope/internal/hls"
	"periscope/internal/service"
	"periscope/internal/stats"
)

func smallCampaign(t *testing.T) []Record {
	t.Helper()
	cfg := DefaultCampaignConfig()
	cfg.UnlimitedSessions = 400
	cfg.LimitsMbps = []float64{0.5, 2, 10}
	cfg.SessionsPerLimit = 40
	cfg.PopTarget = 800
	recs := NewCampaign(cfg).Run()
	if len(recs) < 400 {
		t.Fatalf("only %d records", len(recs))
	}
	return recs
}

func TestCampaignProtocolMix(t *testing.T) {
	recs := smallCampaign(t)
	unlimited := Filter(recs, "", 0)
	rtmp := len(Filter(unlimited, "RTMP", 0))
	hlsN := len(Filter(unlimited, "HLS", 0))
	if rtmp == 0 || hlsN == 0 {
		t.Fatalf("degenerate mix: RTMP=%d HLS=%d", rtmp, hlsN)
	}
	// Paper: 1796 RTMP vs 1586 HLS — roughly balanced via viewer-weighted
	// teleport. Accept a broad band.
	frac := float64(hlsN) / float64(rtmp+hlsN)
	if frac < 0.15 || frac > 0.85 {
		t.Errorf("HLS share = %.2f, want in [0.15, 0.85] (paper ~0.47)", frac)
	}
}

func TestCampaignHLSOnlyForPopular(t *testing.T) {
	recs := smallCampaign(t)
	for _, r := range recs {
		if r.Protocol == "HLS" && r.Viewers < 100 {
			t.Fatalf("HLS session with %d viewers", r.Viewers)
		}
		if r.Protocol == "RTMP" && r.Viewers >= 100 {
			t.Fatalf("RTMP session with %d viewers", r.Viewers)
		}
	}
}

func TestCampaignViewerMeansSeparate(t *testing.T) {
	recs := smallCampaign(t)
	var rtmpSum, hlsSum, rtmpN, hlsN float64
	for _, r := range recs {
		if r.Protocol == "RTMP" {
			rtmpSum += float64(r.Viewers)
			rtmpN++
		} else {
			hlsSum += float64(r.Viewers)
			hlsN++
		}
	}
	if hlsN == 0 || rtmpN == 0 {
		t.Skip("degenerate mix")
	}
	if hlsSum/hlsN <= rtmpSum/rtmpN {
		t.Errorf("HLS mean viewers %.0f not > RTMP %.0f", hlsSum/hlsN, rtmpSum/rtmpN)
	}
}

func TestCampaignStallIncreasesWhenLimited(t *testing.T) {
	recs := smallCampaign(t)
	ratio := func(limit float64) float64 {
		rs := Filter(recs, "RTMP", limit)
		if len(rs) == 0 {
			return 0
		}
		var sum float64
		for _, r := range rs {
			sum += r.Metrics.StallRatio
		}
		return sum / float64(len(rs))
	}
	slow, fast := ratio(0.5), ratio(10)
	if slow <= fast {
		t.Errorf("stall ratio 0.5Mbps %.3f not > 10Mbps %.3f", slow, fast)
	}
}

func TestCampaignHLSReportsOnlyStallCount(t *testing.T) {
	recs := smallCampaign(t)
	for _, r := range recs {
		if r.Protocol == "HLS" {
			if r.Meta.AvgStallSec != 0 || r.Meta.StallTimeSec != 0 || r.Meta.PlaybackDelaySec != 0 {
				t.Fatalf("HLS meta leaked RTMP-only fields: %+v", r.Meta)
			}
		}
	}
}

func TestWelchOnlyFrameRateDiffers(t *testing.T) {
	// Reproduces the §5 device comparison: across S3/S4 session sets the
	// frame rate differs significantly, the QoE metrics do not.
	cfg := DefaultCampaignConfig()
	cfg.UnlimitedSessions = 700
	cfg.LimitsMbps = nil
	cfg.PopTarget = 800
	recs := NewCampaign(cfg).Run()

	var fpsS3, fpsS4, stallS3, stallS4, joinS3, joinS4 []float64
	for _, r := range recs {
		if r.Device == GalaxyS3.Name {
			fpsS3 = append(fpsS3, r.MeasuredFPS)
			stallS3 = append(stallS3, r.Metrics.StallRatio)
			joinS3 = append(joinS3, r.Metrics.JoinTime.Seconds())
		} else {
			fpsS4 = append(fpsS4, r.MeasuredFPS)
			stallS4 = append(stallS4, r.Metrics.StallRatio)
			joinS4 = append(joinS4, r.Metrics.JoinTime.Seconds())
		}
	}
	fpsTest, err := stats.WelchTTest(fpsS3, fpsS4)
	if err != nil {
		t.Fatal(err)
	}
	if !fpsTest.Significant(0.05) {
		t.Errorf("frame rate should differ between devices: p=%.4f", fpsTest.P)
	}
	stallTest, _ := stats.WelchTTest(stallS3, stallS4)
	if stallTest.Significant(0.01) {
		t.Errorf("stall ratio should NOT differ: p=%.4f", stallTest.P)
	}
	joinTest, _ := stats.WelchTTest(joinS3, joinS4)
	if joinTest.Significant(0.01) {
		t.Errorf("join time should NOT differ: p=%.4f", joinTest.P)
	}
}

func TestWireSessionRTMP(t *testing.T) {
	if testing.Short() {
		t.Skip("wire session needs real time")
	}
	scfg := service.DefaultConfig()
	scfg.PopConfig.TargetConcurrent = 60
	// Keep every broadcast unpopular so teleport lands on RTMP.
	scfg.HLSViewerThreshold = 1 << 30
	svc, err := service.Start(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rec, err := WatchOnce(WireConfig{
		APIBaseURL: svc.APIBaseURL(),
		Session:    "wire-test",
		WatchFor:   5 * time.Second,
		Device:     GalaxyS4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Protocol != "RTMP" {
		t.Fatalf("protocol = %s", rec.Protocol)
	}
	if rec.Metrics.Delivered == 0 {
		t.Fatal("no media delivered")
	}
	if rec.Metrics.PlayTime == 0 {
		t.Error("no playback achieved in 5s")
	}
	// In-process loopback: delivery latency must be small and positive-ish.
	if rec.Metrics.DeliveryLatency > 2*time.Second || rec.Metrics.DeliveryLatency < -time.Second {
		t.Errorf("delivery latency = %v", rec.Metrics.DeliveryLatency)
	}
	// The playbackMeta upload must have landed at the service.
	metas := svc.API.PlaybackMetas()
	if len(metas) != 1 || metas[0].Protocol != "RTMP" {
		t.Errorf("service metas = %+v", metas)
	}
}

func TestWireSessionHLS(t *testing.T) {
	if testing.Short() {
		t.Skip("wire session needs real time")
	}
	scfg := service.DefaultConfig()
	scfg.PopConfig.TargetConcurrent = 60
	scfg.HLSViewerThreshold = 1 // any watched broadcast goes via HLS
	scfg.SegmentTarget = 700 * time.Millisecond
	svc, err := service.Start(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rec, err := WatchOnce(WireConfig{
		APIBaseURL: svc.APIBaseURL(),
		Session:    "wire-test-hls",
		WatchFor:   6 * time.Second,
		Device:     GalaxyS3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Protocol != "HLS" {
		t.Fatalf("protocol = %s", rec.Protocol)
	}
	if rec.Metrics.Delivered == 0 {
		t.Fatal("no segments delivered")
	}
	if rec.Meta.AvgStallSec != 0 {
		t.Error("HLS meta must not include stall durations")
	}
	// Capture times come from the segments' timestamp SEIs: a segment
	// arrives after its last frame, and within one segment target plus
	// one poll (half the default target) of it.
	bound := scfg.SegmentTarget + hls.DefaultSegmentTarget/2
	if d := rec.Metrics.DeliveryLatency; d <= 0 || d > bound {
		t.Errorf("delivery latency = %v, want in (0, %v]", d, bound)
	}
}
