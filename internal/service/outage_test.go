package service

import (
	"sync"
	"testing"
	"time"
)

// startOutageService builds a full service with two POP clusters (two
// POPs in us-west, two in eu-west) and resilience knobs tightened so a
// scenario fits in test time: short segments, two fill attempts, a
// two-failure breaker with a sub-second cooldown. The full failover QoE
// arc lives in internal/scenario (the regional-outage timeline); what
// stays here is the lifecycle race below.
func startOutageService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNPOPRegions = []string{"us-west", "us-west", "eu-west", "eu-west"}
	cfg.CDNLinkRTTScale = -1
	cfg.CDNFillAttempts = 2
	cfg.CDNBreakerFailures = 2
	cfg.CDNBreakerCooldown = 400 * time.Millisecond
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestEndBroadcastDuringPOPOutageRace drives EndBroadcast concurrently
// with a regional outage, its recovery, snapshots and viewer admission —
// the lifecycle race the -race build must keep clean, with the service
// still consistent afterwards.
func TestEndBroadcastDuringPOPOutageRace(t *testing.T) {
	svc := startOutageService(t)
	b := pickBroadcast(t, svc, true)
	if _, err := svc.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	h := svc.hubFor(b.ID)
	waitFor(t, func() bool { return h.Segmenter().SegmentCount() >= 1 }, "first segment")
	outRegion := svc.cdn[svc.PreferredPOPIndex(b.ID)].region.Name

	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		<-start
		svc.RegionOutage(outRegion)
		time.Sleep(50 * time.Millisecond)
		svc.RestoreRegion(outRegion)
	}()
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(20 * time.Millisecond)
		svc.EndBroadcast(b.ID)
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 40; i++ {
			svc.Snapshot()
			svc.POPHealthStates()
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 40; i++ {
			// AccessVideo races the end: either answer is fine, the
			// steering and pipeline state just must stay consistent.
			if _, err := svc.AccessVideo(b.ID); err != nil {
				return
			}
		}
	}()
	close(start)
	wg.Wait()

	// The service survived: outage fully lifted, snapshots coherent, and
	// new viewers are still admitted.
	svc.RestoreRegion(outRegion)
	waitFor(t, func() bool {
		for _, st := range svc.POPHealthStates() {
			if st == "down" {
				return false
			}
		}
		return true
	}, "no POP left blackholed")
	snap := svc.Snapshot()
	if len(snap.POPs) != len(svc.cdn) {
		t.Fatalf("snapshot covers %d POPs, want %d", len(snap.POPs), len(svc.cdn))
	}
	other := pickBroadcast(t, svc, false)
	if _, err := svc.AccessVideo(other.ID); err != nil {
		t.Fatalf("service unusable after the race: %v", err)
	}
}
