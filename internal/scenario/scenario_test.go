package scenario

import (
	"strings"
	"testing"
	"time"

	"periscope/internal/netem"
	"periscope/internal/service"
)

// The four shipped timelines, each through the shared runner. Every
// scenario asserts at least three SLOs (see scenarios.go); a breach
// fails the test with the rendered delta table in the log.

func TestScenarioFlashCrowd(t *testing.T) {
	res := RunT(t, FlashCrowd())
	// Beyond the SLO block: the burst must actually have exercised the
	// fill hierarchy (the whole point of the scenario).
	final := res.Snapshots[len(res.Snapshots)-1].Snap
	var fills int64
	for _, p := range final.POPs {
		fills += p.Fills
	}
	if fills == 0 {
		t.Error("flash crowd produced no edge fills at all")
	}
}

func TestScenarioMassChurn(t *testing.T) {
	res := RunT(t, MassChurn())
	final := res.Snapshots[len(res.Snapshots)-1].Snap
	// The churn was real: rooms opened, rooms closed, and everything
	// opened was closed by the end.
	if final.Chat.RoomsOpened < 3 {
		t.Errorf("only %d rooms ever opened, want >= 3", final.Chat.RoomsOpened)
	}
	if final.Chat.RoomsClosed != final.Chat.RoomsOpened {
		t.Errorf("rooms closed %d != opened %d", final.Chat.RoomsClosed, final.Chat.RoomsOpened)
	}
}

func TestScenarioMobileProfiles(t *testing.T) {
	res := RunT(t, MobileProfiles())
	if len(res.Cohorts) != 3 {
		t.Fatalf("got %d cohorts, want 3", len(res.Cohorts))
	}
	// The report carries the per-cohort table the SLOs were judged on.
	for _, label := range []string{"3g", "4g", "wifi"} {
		if !strings.Contains(res.Report, label) {
			t.Errorf("report missing cohort %q:\n%s", label, res.Report)
		}
	}
	// Delivery latency is measured from the segments' capture stamps:
	// positive, and longer on the slower link (§5.1).
	delivery := map[string]time.Duration{}
	for _, c := range res.Cohorts {
		delivery[c.Label] = c.Summary.DeliveryP50
	}
	if !(delivery["3g"] > delivery["wifi"] && delivery["wifi"] > 0) {
		t.Errorf("delivery p50: 3g %v, wifi %v; want 3g > wifi > 0", delivery["3g"], delivery["wifi"])
	}
}

func TestScenarioRegionalOutage(t *testing.T) {
	res := RunT(t, RegionalOutage())
	final := res.Snapshots[len(res.Snapshots)-1].Snap
	// Recovery must have re-warmed the downed cluster (warmups counted on
	// its POPs beyond the promotion-time warm-up).
	var warm int64
	for _, p := range final.POPs {
		warm += p.Warmups
	}
	if warm < 2 {
		t.Errorf("only %d warmups across POPs; recovery re-warm missing", warm)
	}
}

// TestScenarioHarnessFailsOnBreach is the deliberately-broken fixture:
// a timeline whose SLO block cannot be satisfied (an impossible join
// bound, plus an injected origin fault to make the degradation real)
// must come back with breaches and a rendered delta table — proving the
// harness actually fails on breach rather than rubber-stamping.
func TestScenarioHarnessFailsOnBreach(t *testing.T) {
	broken := Scenario{
		Name:        "broken-fixture",
		Description: "impossible SLOs over a degraded fill path",
		Config: func() service.Config {
			cfg := testbedConfig()
			cfg.CDNPOPRegions = []string{"us-west", "eu-west"}
			return cfg
		},
		Steps: []Step{
			PickBroadcast(0, "hot", true),
			Access(0, "hot"),
			WaitSegments(0, "hot", 1, 5*time.Second),
			InjectOriginFault(0, netem.FaultProfile{LossProb: 0.3, Seed: 11}),
			SpawnViewers(100*time.Millisecond, "crowd", "hot", 2, nil, 2*time.Second),
		},
		SLO: SLO{
			// No real viewer joins in under a nanosecond.
			MaxJoinP95: map[string]time.Duration{"crowd": time.Nanosecond},
			// And no session can deliver a million segments.
			MinDelivered: map[string]int{"crowd": 1_000_000},
		},
	}
	res, err := Execute(broken)
	if err != nil {
		t.Fatalf("broken fixture failed to run (want SLO breaches, not a step error): %v", err)
	}
	if len(res.Breaches) == 0 {
		t.Fatal("broken fixture reported zero breaches — the harness does not fail on breach")
	}
	checks := map[string]bool{}
	for _, b := range res.Breaches {
		checks[b.Check] = true
	}
	if !checks["join-p95"] || !checks["delivered"] {
		t.Errorf("expected join-p95 and delivered breaches, got %v", res.Breaches)
	}
	if !strings.Contains(res.Report, "BREACH") {
		t.Errorf("report does not render the breach delta table:\n%s", res.Report)
	}
}

// TestScenarioRegistry pins the registry the -scenario flag resolves.
func TestScenarioRegistry(t *testing.T) {
	want := []string{"flash-crowd", "mass-churn", "mobile-profiles", "regional-outage"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		sc, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, sc.Name)
		}
	}
	if _, err := ByName("no-such-timeline"); err == nil {
		t.Error("ByName of an unknown scenario did not error")
	}
}
