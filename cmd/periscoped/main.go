// Command periscoped runs the full Periscope-like service on loopback —
// API, regional RTMP ingest fleet, geo-placed CDN origin tier + edge POPs
// and chat — and prints the endpoints. Point the other tools (or your own
// RTMP/HLS client) at it. The population churns in real time (scheduled
// broadcast ends tear their pipelines down end-to-end), and a
// delivery-plane snapshot (fan-out drops/resyncs, peer vs origin fills,
// playlist staleness) prints periodically and at shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"periscope"
	"periscope/internal/analysis"
	"periscope/internal/scenario"
)

// runScenario boots a fresh service, drives the named timeline through
// the scenario runner, prints the report, and exits non-zero if any SLO
// was breached (or the timeline could not run at all).
func runScenario(name string) {
	sc, err := scenario.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running scenario %s — %s\n\n", sc.Name, sc.Description)
	res, err := scenario.Execute(sc)
	if err != nil {
		log.Fatalf("scenario did not complete: %v", err)
	}
	fmt.Println(res.Report)
	if len(res.Breaches) > 0 {
		fmt.Printf("FAIL: %d SLO breach(es)\n", len(res.Breaches))
		os.Exit(1)
	}
	fmt.Println("PASS: all asserted SLOs within limits")
}

func main() {
	concurrent := flag.Int("broadcasts", 300, "steady-state number of live broadcasts")
	threshold := flag.Int("hls-threshold", 100, "viewer count beyond which HLS is used")
	popRegions := flag.String("pop-regions", "us-west,eu-west", "comma-separated CDN edge POP regions, one POP each (e.g. us-west,us-west,eu-west)")
	churn := flag.Duration("churn", 2*time.Second, "population churn tick (0 freezes the population)")
	statsEvery := flag.Duration("stats", time.Minute, "delivery snapshot print interval (0 disables)")
	outageRegion := flag.String("outage-region", "", "run a scheduled outage drill: blackhole every POP in this region (e.g. us-west)")
	outageAfter := flag.Duration("outage-after", 30*time.Second, "delay before the scheduled outage begins")
	outageFor := flag.Duration("outage-for", 30*time.Second, "outage duration before the region is restored and re-warmed")
	scenarioName := flag.String("scenario", "", "run a scripted scenario timeline instead of serving (one of: "+strings.Join(scenario.Names(), ", ")+")")
	flag.Parse()

	if *scenarioName != "" {
		runScenario(*scenarioName)
		return
	}

	cfg := periscope.DefaultTestbedConfig()
	cfg.PopConfig.TargetConcurrent = *concurrent
	cfg.HLSViewerThreshold = *threshold
	for _, name := range strings.Split(*popRegions, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cfg.CDNPOPRegions = append(cfg.CDNPOPRegions, name)
		}
	}
	cfg.ChurnInterval = *churn
	tb, err := periscope.StartTestbed(cfg)
	if err != nil {
		log.Fatalf("starting service: %v", err)
	}
	defer tb.Close()

	fmt.Printf("periscoped running with ~%d live broadcasts\n", *concurrent)
	fmt.Printf("  API:  %s  (POST /api/v2/{mapGeoBroadcastFeed,getBroadcasts,playbackMeta,accessVideo,teleport})\n", tb.APIBaseURL())
	fmt.Printf("  Chat: %s  (WebSocket /chat/<broadcastID>, heart taps POST /hearts/<broadcastID>, avatars at /avatars/)\n", tb.ChatBaseURL())
	fmt.Println("  RTMP ingest fleet (region-nearest to the broadcaster):")
	for name, rev := range tb.RTMPServerNames() {
		fmt.Printf("    %-34s %s\n", name, rev)
	}
	fmt.Println("  CDN topology (hierarchical fills: nearest peer, then origin):")
	for _, line := range tb.CDNTopology() {
		fmt.Printf("    %s\n", line)
	}
	// Scheduled outage drill: blackhole the region, let health-driven
	// steering re-route its viewers, then restore and re-warm. The
	// periodic snapshot shows the failover (health/down, re-routes,
	// breaker trips) while it runs.
	var outageC, restoreC <-chan time.Time
	if *outageRegion != "" {
		fmt.Printf("\nOutage drill: %s goes dark in %v for %v.\n", *outageRegion, *outageAfter, *outageFor)
		outageC = time.After(*outageAfter)
	}
	fmt.Println("\nCtrl-C to stop.")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-outageC:
			outageC = nil
			n := tb.RegionOutage(*outageRegion)
			fmt.Printf("\n*** outage: %d POP(s) in %s blackholed; health: %v\n",
				n, *outageRegion, tb.POPHealthStates())
			restoreC = time.After(*outageFor)
		case <-restoreC:
			restoreC = nil
			n := tb.RestoreRegion(*outageRegion)
			fmt.Printf("\n*** recovery: %d POP(s) in %s restored and re-warming; health: %v\n",
				n, *outageRegion, tb.POPHealthStates())
		case <-tick:
			fmt.Println(analysis.DeliveryTable(tb.Snapshot()).Render())
		case <-ch:
			fmt.Println("\nshutting down; final delivery snapshot:")
			fmt.Println(analysis.DeliveryTable(tb.Snapshot()).Render())
			return
		}
	}
}
