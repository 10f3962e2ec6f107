package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"periscope/internal/api"
	"periscope/internal/broadcastmodel"
	"periscope/internal/hls"
	"periscope/internal/mpegts"
)

// endedReplayable advances the population until an ended, replayable
// broadcast exists and returns it.
func endedReplayable(t *testing.T, svc *Service) *broadcastmodel.Broadcast {
	t.Helper()
	for i := 0; i < 20; i++ {
		svc.Pop.Advance(10 * time.Minute)
		for _, b := range svc.Pop.Ended() {
			if b.AvailableForReplay && !b.Private {
				return b
			}
		}
	}
	t.Fatal("no ended replayable broadcast after hours of virtual time")
	return nil
}

func TestReplayServedAsVOD(t *testing.T) {
	svc := startService(t)
	b := endedReplayable(t, svc)

	cli := api.NewClient(svc.APIBaseURL(), "replay-test", nil)
	acc, err := cli.AccessVideo(b.ID)
	if err != nil {
		t.Fatalf("accessVideo for replay: %v", err)
	}
	if acc.Protocol != "HLS" || acc.HLSBaseURL == "" {
		t.Fatalf("replay access = %+v", acc)
	}

	var segs []hls.FetchedSegment
	viewer := hls.Client{
		Resolve: func() (string, bool, error) {
			acc, err := cli.AccessVideo(b.ID)
			return acc.HLSBaseURL, acc.Replay, err
		},
		PollInterval: 50 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := viewer.Run(ctx, func(fs hls.FetchedSegment) { segs = append(segs, fs) }); err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no VOD segments fetched")
	}
	// VOD: the client terminates on ENDLIST rather than the context.
	if ctx.Err() != nil {
		t.Error("client did not stop at ENDLIST")
	}
	for _, s := range segs {
		if _, err := mpegts.DemuxAll(s.Data); err != nil {
			t.Fatalf("segment %d corrupt: %v", s.Sequence, err)
		}
	}
}

func TestReplayUnavailableForNonReplayable(t *testing.T) {
	svc := startService(t)
	// Find an ended broadcast not available for replay.
	var target *broadcastmodel.Broadcast
	for i := 0; i < 20 && target == nil; i++ {
		svc.Pop.Advance(10 * time.Minute)
		for _, b := range svc.Pop.Ended() {
			if !b.AvailableForReplay {
				target = b
				break
			}
		}
	}
	if target == nil {
		t.Skip("no non-replayable ended broadcast found")
	}
	cli := api.NewClient(svc.APIBaseURL(), "replay-test", nil)
	if _, err := cli.AccessVideo(target.ID); err == nil {
		t.Error("non-replayable ended broadcast must not be accessible")
	}
}

func TestMapIncludeReplay(t *testing.T) {
	svc := startService(t)
	endedReplayable(t, svc) // ensure some ended casts exist
	cli := api.NewClient(svc.APIBaseURL(), "replay-map", nil)
	withReplay, err := cli.MapGeoBroadcastFeed(api.MapGeoBroadcastFeedRequest{
		P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180, IncludeReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ended := 0
	for _, d := range withReplay.Broadcasts {
		if d.State == "ENDED" {
			ended++
		}
	}
	// Live entries cap the response; replays only fill leftover budget, so
	// just assert the flag is honoured when budget exists.
	without, err := cli.MapGeoBroadcastFeed(api.MapGeoBroadcastFeedRequest{
		P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180, IncludeReplay: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range without.Broadcasts {
		if d.State == "ENDED" {
			t.Fatal("live-only query returned an ended broadcast")
		}
	}
}

// TestReplaySteersAroundDeadPOP: a replay viewer is steered like a live
// one — with the broadcast's hash-preferred POP blackholed, AccessVideo
// hands out a Replay URL on a healthy POP and the VOD plays from it.
func TestReplaySteersAroundDeadPOP(t *testing.T) {
	svc := startService(t)
	b := endedReplayable(t, svc)
	dead := svc.PreferredPOPIndex(b.ID)
	svc.BlackholePOP(dead)

	acc, err := api.NewClient(svc.APIBaseURL(), "replay-steer", nil).AccessVideo(b.ID)
	if err != nil {
		t.Fatalf("accessVideo for replay: %v", err)
	}
	if !acc.Replay || acc.Protocol != "HLS" {
		t.Fatalf("replay access = %+v", acc)
	}
	if strings.HasPrefix(acc.HLSBaseURL, svc.cdn[dead].baseURL()+"/") {
		t.Fatalf("replay viewer was handed the blackholed POP %d: %s", dead, acc.HLSBaseURL)
	}
	if got := svc.cdn[dead].reroutes.Load(); got != 1 {
		t.Errorf("dead POP counted %d re-routes, want 1", got)
	}

	viewer := hls.Client{
		Resolve:      func() (string, bool, error) { return acc.HLSBaseURL, acc.Replay, nil },
		PollInterval: 50 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	n := 0
	if err := viewer.Run(ctx, func(hls.FetchedSegment) { n++ }); err != nil || n == 0 {
		t.Fatalf("VOD from the healthy POP: %d segments, err %v", n, err)
	}
}
