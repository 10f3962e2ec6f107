package service

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/mpegts"
	"periscope/internal/rtmp"
)

func startService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond // short segments keep tests fast
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// pickBroadcast returns a live broadcast with the given popularity class.
// AccessVideo classifies by ViewersAt (base level scaled by a ramp-up,
// decay and jitter), so the picks must leave margin: an "unpopular" cast
// must stay under the threshold for the duration of the test, and a
// promoted "popular" cast must be past the arrival ramp, not just have a
// large base level.
func pickBroadcast(t *testing.T, svc *Service, popular bool) *broadcastmodel.Broadcast {
	t.Helper()
	now := svc.Pop.Now()
	th := svc.cfg.HLSViewerThreshold
	if !popular {
		for _, b := range svc.Pop.Live() {
			// Jitter peaks at 1.15× the base level; stay clear of it.
			if !b.Private && b.BaseViewers*1.2 < float64(th) {
				return b
			}
		}
		t.Fatal("no unpopular broadcast found")
	}
	for _, b := range svc.Pop.Live() {
		if !b.Private && b.ViewersAt(now) >= 2*th {
			return b
		}
	}
	// Popular casts are rare at small scale: promote one artificially,
	// backdating the start past the viewer-arrival ramp so ViewersAt
	// agrees with the promotion immediately.
	for _, b := range svc.Pop.Live() {
		if !b.Private {
			b, live := svc.Pop.Promote(b.ID, 500, 10*time.Minute)
			if !live {
				continue
			}
			if v := b.ViewersAt(now); v < th {
				t.Fatalf("promoted broadcast still has %d < %d viewers", v, th)
			}
			return b
		}
	}
	t.Fatal("no broadcast at all")
	return nil
}

func TestProtocolSelectionPolicy(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)

	quiet := pickBroadcast(t, svc, false)
	resp, err := cli.AccessVideo(quiet.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Protocol != "RTMP" || resp.RTMPAddr == "" {
		t.Errorf("unpopular cast got %+v", resp)
	}
	if !strings.HasPrefix(resp.RTMPServer, "vidman-") {
		t.Errorf("server name = %q", resp.RTMPServer)
	}

	popular := pickBroadcast(t, svc, true)
	resp2, err := cli.AccessVideo(popular.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Protocol != "HLS" || resp2.HLSBaseURL == "" {
		t.Errorf("popular cast got %+v", resp2)
	}
}

func TestRTMPViewingEndToEnd(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, false)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatal(err)
	}

	viewer, err := rtmp.Dial(acc.RTMPAddr, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Play(acc.StreamName); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	var gotSeqHeader, gotKeyframe, gotAudio, gotTimestamp bool
	for time.Now().Before(deadline) {
		if gotSeqHeader && gotKeyframe && gotAudio && gotTimestamp {
			break
		}
		msg, err := viewer.ReadMessage()
		if err != nil {
			t.Fatalf("viewer read: %v", err)
		}
		switch msg.TypeID {
		case rtmp.TypeVideo:
			vt, err := flv.ParseVideoTagData(msg.Payload)
			if err != nil {
				t.Fatalf("video tag: %v", err)
			}
			switch vt.PacketType {
			case flv.AVCSeqHeader:
				gotSeqHeader = true
				if _, _, err := flv.ParseDecoderConfig(vt.Data); err != nil {
					t.Errorf("decoder config: %v", err)
				}
			case flv.AVCNALU:
				units, err := avc.ParseAVCC(vt.Data)
				if err != nil {
					t.Fatalf("AVCC: %v", err)
				}
				if vt.FrameType == flv.VideoKeyFrame {
					gotKeyframe = true
				}
				if _, ok := avc.FindTimestamp(units); ok {
					gotTimestamp = true
				}
			}
		case rtmp.TypeAudio:
			gotAudio = true
		}
	}
	if !gotSeqHeader || !gotKeyframe || !gotAudio {
		t.Fatalf("seqHeader=%v keyframe=%v audio=%v", gotSeqHeader, gotKeyframe, gotAudio)
	}
	if !gotTimestamp {
		t.Error("no broadcaster NTP timestamp observed in the stream")
	}
}

func TestFirstForwardedFrameIsKeyframe(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, false)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Let the broadcaster run into the middle of a GOP before joining.
	time.Sleep(700 * time.Millisecond)
	viewer, err := rtmp.Dial(acc.RTMPAddr, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Play(acc.StreamName); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		msg, err := viewer.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if msg.TypeID != rtmp.TypeVideo {
			continue
		}
		vt, err := flv.ParseVideoTagData(msg.Payload)
		if err != nil || vt.PacketType != flv.AVCNALU {
			continue
		}
		if vt.FrameType != flv.VideoKeyFrame {
			t.Fatal("first forwarded frame is not a keyframe")
		}
		return
	}
	t.Fatal("no video frame within deadline")
}

func TestHLSViewingEndToEnd(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Protocol != "HLS" {
		t.Fatalf("protocol = %s", acc.Protocol)
	}
	var segMu sync.Mutex
	var segs []hls.FetchedSegment
	viewer := hls.Client{
		Resolve: func() (string, bool, error) {
			acc, err := cli.AccessVideo(b.ID)
			return acc.HLSBaseURL, acc.Replay, err
		},
		PollInterval: 200 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		viewer.Run(ctx, func(fs hls.FetchedSegment) {
			segMu.Lock()
			segs = append(segs, fs)
			segMu.Unlock()
		})
	}()
	// Wait until a few segments arrived, then stop.
	for i := 0; i < 120; i++ {
		time.Sleep(100 * time.Millisecond)
		segMu.Lock()
		n := len(segs)
		segMu.Unlock()
		if n >= 3 {
			cancel()
			break
		}
	}
	<-done
	if len(segs) < 3 {
		t.Fatalf("only %d segments fetched", len(segs))
	}
	for _, s := range segs {
		units, err := mpegts.DemuxAll(s.Data)
		if err != nil {
			t.Fatalf("segment %d: %v", s.Sequence, err)
		}
		var hasVideo, hasAudio bool
		for _, u := range units {
			switch u.PID {
			case mpegts.PIDVideo:
				hasVideo = true
			case mpegts.PIDAudio:
				hasAudio = true
			}
		}
		if !hasVideo || !hasAudio {
			t.Errorf("segment %d video=%v audio=%v", s.Sequence, hasVideo, hasAudio)
		}
	}
}

func TestRTMPServerFleetNaming(t *testing.T) {
	svc := startService(t)
	names := svc.RTMPServerNames()
	if len(names) < 6 {
		t.Fatalf("only %d regional servers", len(names))
	}
	for name, rev := range names {
		if !strings.HasPrefix(name, "vidman-") || !strings.HasSuffix(name, ".periscope.tv") {
			t.Errorf("bad server name %q", name)
		}
		if !strings.HasPrefix(rev, "ec2-") || !strings.HasSuffix(rev, ".compute.amazonaws.com") {
			t.Errorf("bad reverse name %q", rev)
		}
	}
}

func TestAccessVideoUnknownBroadcast(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	if _, err := cli.AccessVideo("nope0000nope0"); err == nil {
		t.Error("want error for unknown broadcast")
	}
}

func TestHubViewerAccounting(t *testing.T) {
	svc := startService(t)
	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, false)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.hubFor(b.ID)
	if h == nil {
		t.Fatal("no hub after AccessVideo")
	}
	viewer, err := rtmp.Dial(acc.RTMPAddr, "live")
	if err != nil {
		t.Fatal(err)
	}
	if err := viewer.Play(acc.StreamName); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.ViewerCount() == 1 }, "viewer attach")
	viewer.Close()
	waitFor(t, func() bool { return h.ViewerCount() == 0 }, "viewer detach")
	_ = net.ErrClosed
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
