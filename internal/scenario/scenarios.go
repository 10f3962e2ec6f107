package scenario

import (
	"fmt"
	"sort"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/netem"
	"periscope/internal/service"
)

// testbedConfig is the shared scenario service shape: two two-POP
// clusters (us-west, eu-west), short segments so timelines fit in test
// time, modelled link RTT disabled (access profiles supply the latency
// where a scenario wants it), tight fill retries and breakers so
// failover happens on a player timescale.
func testbedConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNPOPRegions = []string{"us-west", "us-west", "eu-west", "eu-west"}
	cfg.CDNLinkRTTScale = -1
	cfg.CDNFillAttempts = 2
	cfg.CDNBreakerFailures = 2
	cfg.CDNBreakerCooldown = 400 * time.Millisecond
	return cfg
}

// FlashCrowd is the promotion-burst scenario: one broadcast crosses the
// HLS threshold, a viewer burst lands on its preferred POP while chat
// ramps on the same broadcast, and the fill hierarchy must hold — anchor
// warm-up on promotion, peer-first fills inside the cluster, origin
// egress O(clusters) per segment rather than O(viewers).
func FlashCrowd() Scenario {
	const sessionDur = 6 * time.Second
	return Scenario{
		Name:        "flash-crowd",
		Description: "promotion burst → fill-cap pressure → anchor warm-up → peer fills",
		Config:      testbedConfig,
		Steps: []Step{
			// A non-anchor preferred POP makes the peer-fill path load-
			// bearing: the burst POP probes its (warmed) cluster anchor
			// before falling back to origin. Anchors are the lowest index
			// per region cluster — 0 and 2 in the testbed topology.
			PickBroadcastWhere(0, "hot", true, func(r *Run, b *broadcastmodel.Broadcast) bool {
				idx := r.Svc.PreferredPOPIndex(b.ID)
				return idx == 1 || idx == 3
			}),
			Access(0, "hot"),
			WaitSegments(0, "hot", 1, 5*time.Second),
			// The anchors re-warm asynchronously once the first segment is
			// cut; hold the burst until the cluster anchor actually holds
			// it, so the followers' probes peer-fill instead of racing a
			// still-cold anchor straight to the origin.
			WaitUntil(0, "cluster anchor warmed", 5*time.Second, func(r *Run) bool {
				b, err := r.Broadcast("hot")
				if err != nil {
					return false
				}
				snap := r.Svc.Snapshot()
				region := snap.POPs[r.Svc.PreferredPOPIndex(b.ID)].Region
				for _, p := range snap.POPs {
					if p.Region == region {
						// Lowest-indexed POP in the region is the anchor.
						return p.CachedSegments >= 1
					}
				}
				return false
			}),
			SpawnViewers(200*time.Millisecond, "crowd", "hot", 12, nil, sessionDur),
			RampChat(400*time.Millisecond, "hot", 6, 3),
		},
		SLO: SLO{
			MaxJoinP95:               map[string]time.Duration{"crowd": 3 * time.Second},
			MaxDeliveryP95:           map[string]time.Duration{"crowd": 800 * time.Millisecond},
			MaxLongestStall:          map[string]time.Duration{"crowd": 3 * time.Second},
			MinDelivered:             map[string]int{"crowd": 3},
			MaxOriginFillsPerSegment: 2,
			OriginFillSlack:          24,
			OriginFillSlot:           "hot",
			MinPeerFills:             1,
			MinWarmups:               1,
			MinChatMessages:          12,
			MonotonicCounters:        true,
		},
	}
}

// MassChurn is the lifecycle scenario: broadcasts end and relaunch in a
// staggered sequence through the population's end hook (the real
// ENDLIST → linger → unregister → room-close path), with viewers
// mid-stream. Afterwards nothing may leak: no registered origins, no
// open chat rooms, and no cumulative counter may ever have dipped. The
// package's leakcheck TestMain guards the goroutine side.
func MassChurn() Scenario {
	cfgFn := func() service.Config {
		cfg := testbedConfig()
		// A real (but short) linger so deferred unregister/room-close
		// timers and mid-linger relaunches are exercised.
		cfg.CDNUnregisterLinger = 500 * time.Millisecond
		return cfg
	}
	const sessionDur = 5 * time.Second
	return Scenario{
		Name:        "mass-churn",
		Description: "staggered end/relaunch across broadcasts; no leaked rooms or origins",
		Config:      cfgFn,
		Steps: []Step{
			PickBroadcast(0, "hot1", true),
			PickBroadcast(0, "hot2", true),
			PickBroadcast(0, "quiet", false),
			Access(0, "hot1"),
			Access(0, "hot2"),
			Access(0, "quiet"),
			// Pin ends far out so Advance calls that fire one broadcast's
			// end don't take the others down as a side effect.
			PinEnd(0, "hot2", time.Hour),
			PinEnd(0, "quiet", time.Hour),
			WaitSegments(0, "hot1", 1, 5*time.Second),
			WaitSegments(0, "hot2", 1, 5*time.Second),
			SpawnViewers(300*time.Millisecond, "churned", "hot1", 3, nil, sessionDur),
			SpawnViewers(300*time.Millisecond, "survivors", "hot2", 3, nil, sessionDur),
			RampChat(500*time.Millisecond, "quiet", 4, 3),
			// hot1 ends mid-stream through the population hook (the delay
			// is virtual time: ScheduleEnd advances the population and the
			// end fires inline). Segments land roughly every 1.5s (keyframe
			// alignment stretches the 800ms target), so ending at 3.8s
			// leaves the churned cohort at least two fetched segments.
			ScheduleEnd(3800*time.Millisecond, "hot1", 2*time.Second),
			// ...and relaunches inside its unregister linger, reclaiming
			// the chat room and re-registering on next access.
			Relaunch(4100*time.Millisecond, "hot1", time.Hour),
			Access(4200*time.Millisecond, "hot1"),
			// Then the full staggered teardown: hot1 again, quiet, hot2.
			ScheduleEnd(4600*time.Millisecond, "hot1", time.Second),
			ScheduleEnd(5000*time.Millisecond, "quiet", time.Second),
			ScheduleEnd(5400*time.Millisecond, "hot2", time.Second),
			// Lingers fire, unregisters land, rooms close. Replay (VOD)
			// mounts are not counted: they outlive a broadcast by design.
			WaitUntil(5600*time.Millisecond, "all origins unregistered", 6*time.Second, func(r *Run) bool {
				return r.Svc.Snapshot().Origin.Broadcasts == 0
			}),
			WaitUntil(5600*time.Millisecond, "all chat rooms closed", 6*time.Second, func(r *Run) bool {
				return r.Svc.Snapshot().Chat.Rooms == 0
			}),
		},
		SLO: SLO{
			MinDelivered:      map[string]int{"churned": 2, "survivors": 2},
			MonotonicCounters: true,
			NoResidualOrigins: true,
			NoResidualRooms:   true,
			MinChatMessages:   10,
		},
	}
}

// MobileProfiles replays the paper's access-network sweep: three cohorts
// watch the same broadcast through 3G / 4G / WiFi access links
// (bandwidth, per-request RTT, seeded loss) and the QoE must reproduce
// the measured shape — stall ratio ordered 3G >= 4G >= WiFi with the
// congested 3G cohort genuinely stalling, and join latency strictly
// ordered by access RTT.
func MobileProfiles() Scenario {
	cfgFn := func() service.Config {
		cfg := testbedConfig()
		cfg.CDNPOPRegions = []string{"us-west", "eu-west"}
		return cfg
	}
	const sessionDur = 6 * time.Second
	p3g, p4g, wifi := netem.Profile3G, netem.Profile4G, netem.ProfileWiFi
	return Scenario{
		Name:        "mobile-profiles",
		Description: "3G/4G/WiFi access profiles; stall-ratio ordering per the paper",
		Config:      cfgFn,
		Steps: []Step{
			PickBroadcast(0, "hot", true),
			Access(0, "hot"),
			// Two segments before anyone joins. Viewers join at the newest
			// listed segment, so this is no startup buffer: every cohort
			// starts from one segment and fills its buffer over its own link.
			WaitSegments(0, "hot", 2, 8*time.Second),
			SpawnViewers(200*time.Millisecond, "3g", "hot", 4, &p3g, sessionDur),
			SpawnViewers(200*time.Millisecond, "4g", "hot", 4, &p4g, sessionDur),
			SpawnViewers(200*time.Millisecond, "wifi", "hot", 4, &wifi, sessionDur),
		},
		SLO: SLO{
			StallRatioOrdering: []string{"3g", "4g", "wifi"},
			JoinOrdering:       []string{"3g", "4g", "wifi"},
			MinStallRatioMean:  map[string]float64{"3g": 0.01},
			MaxStallRatioP95:   map[string]float64{"wifi": 0.05},
			MaxJoinP95:         map[string]time.Duration{"wifi": 1 * time.Second},
			MaxDeliveryP95:     map[string]time.Duration{"wifi": 800 * time.Millisecond},
			MinDelivered:       map[string]int{"3g": 2, "4g": 3, "wifi": 3},
		},
	}
}

// RegionalOutage is PR 6's resilience scenario on the shared harness:
// viewers watch from their hash-preferred region, the whole region goes
// dark mid-stream, health-driven steering re-routes everyone to the
// surviving cluster with a bounded stall, and recovery re-warms the dead
// POPs before viewers return — all while counters stay cumulative and
// origin egress stays O(clusters).
func RegionalOutage() Scenario {
	const sessionDur = 9 * time.Second
	return Scenario{
		Name:        "regional-outage",
		Description: "regional blackhole → steering failover (bounded stall) → re-warmed recovery",
		Config:      testbedConfig,
		Steps: []Step{
			PickBroadcast(0, "hot", true),
			Access(0, "hot"),
			WaitSegments(0, "hot", 1, 5*time.Second),
			SpawnViewers(100*time.Millisecond, "viewers", "hot", 8, nil, sessionDur),
			// Steady state, then the preferred region goes dark.
			RegionOutage(2100*time.Millisecond, "hot", 2),
			// Hold the outage across a few segment periods, then lift it.
			RestoreOutage(4600*time.Millisecond, "hot", 2),
			WaitHealthy(4600*time.Millisecond, 5*time.Second),
			WaitRewarmed(4600*time.Millisecond, "hot", 5*time.Second),
		},
		SLO: SLO{
			MaxLongestStall:          map[string]time.Duration{"viewers": 4 * time.Second},
			MinDelivered:             map[string]int{"viewers": 5},
			MinProgress:              map[string]time.Duration{"viewers": 6 * time.Second},
			MinReroutes:              1,
			MinWarmups:               1,
			MaxOriginFillsPerSegment: 2,
			OriginFillSlack:          24,
			OriginFillSlot:           "hot",
			MonotonicCounters:        true,
		},
	}
}

// registry maps scenario names to their builders, for tests and the
// periscoped -scenario flag.
var registry = map[string]func() Scenario{
	"flash-crowd":     FlashCrowd,
	"mass-churn":      MassChurn,
	"mobile-profiles": MobileProfiles,
	"regional-outage": RegionalOutage,
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, error) {
	fn, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("unknown scenario %q (have: %v)", name, Names())
	}
	return fn(), nil
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
