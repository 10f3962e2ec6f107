// Package scenario is the declarative timeline runner for the full
// testbed: a Scenario is a list of timestamped steps (pick/promote a
// broadcast, spawn viewer cohorts, inject faults, blackhole a region,
// end/relaunch broadcasts through the population, ramp chat load) plus an
// SLO block. The runner boots a real service, executes the steps against
// real HTTP viewers and WebSocket chat members, samples
// Service.Snapshot() at every step boundary, folds per-viewer
// player.Metrics into analysis.MetricsSummary per cohort, and evaluates
// the SLOs — failing with a rendered delta table on any breach.
//
// The paper measured QoE under real network conditions (§5); the named
// scenarios in scenarios.go replay its measurement axes as repeatable
// tier-1 tests: flash crowd, mass churn, mobile access profiles, and
// regional outage.
package scenario

import (
	"fmt"
	"sync"
	"time"

	"periscope/internal/api"
	"periscope/internal/broadcastmodel"
	"periscope/internal/chat"
	"periscope/internal/service"
)

// Step is one timestamped action on the running testbed. At is the
// offset from scenario start; steps execute sequentially in At order, and
// the runner samples a labelled snapshot after each one.
type Step struct {
	At   time.Duration
	Name string
	Do   func(r *Run) error
}

// SLO is the assertion block evaluated once the timeline has drained.
// Map keys are cohort labels from SpawnViewers; the empty label ""
// applies to every session across all cohorts. Zero values mean "not
// asserted".
type SLO struct {
	// MaxJoinP95 bounds the cohort's p95 join latency.
	MaxJoinP95 map[string]time.Duration
	// MaxStallRatioP95 bounds the cohort's p95 stall ratio.
	MaxStallRatioP95 map[string]float64
	// MinStallRatioMean asserts the cohort really did stall — the
	// congested-profile half of the paper's ordering observation.
	MinStallRatioMean map[string]float64
	// MaxDeliveryP95 bounds the cohort's p95 delivery latency, capture
	// of a segment's last frame to its arrival at the viewer (§5.1).
	MaxDeliveryP95 map[string]time.Duration
	// MaxLongestStall bounds the single worst rebuffering interval in the
	// cohort (the failover bound).
	MaxLongestStall map[string]time.Duration
	// MinDelivered requires every session in the cohort to have fetched
	// at least this many segments.
	MinDelivered map[string]int
	// MinProgress requires every session in the cohort to still be
	// receiving media at or after this session offset (no viewer silently
	// gave up mid-scenario).
	MinProgress map[string]time.Duration

	// StallRatioOrdering lists cohorts worst-first: mean stall ratios
	// must be non-increasing along the list (the paper's 3G >= 4G >= WiFi
	// observation).
	StallRatioOrdering []string
	// JoinOrdering lists cohorts slowest-first: p50 join latencies must
	// be strictly decreasing along the list.
	JoinOrdering []string

	// MaxOriginFillsPerSegment bounds origin segment egress at
	// MaxOriginFillsPerSegment × segments(OriginFillSlot) +
	// OriginFillSlack — the O(clusters)-not-O(viewers) assertion.
	MaxOriginFillsPerSegment float64
	OriginFillSlack          int64
	OriginFillSlot           string

	// MonotonicCounters asserts no cumulative snapshot counter ever dips
	// across the step-boundary snapshot sequence.
	MonotonicCounters bool

	// NoResidualOrigins asserts the final snapshot holds zero registered
	// origin broadcasts; NoResidualRooms zero open chat rooms — the
	// leaked-state checks for churn scenarios.
	NoResidualOrigins bool
	NoResidualRooms   bool

	// MinReroutes requires at least this many steering re-routes summed
	// across POPs; MinPeerFills this many peer-sourced segment fills;
	// MinWarmups this many scheduled replica warm-ups; MinChatMessages
	// this many chat messages ingested.
	MinReroutes     int64
	MinPeerFills    int64
	MinWarmups      int64
	MinChatMessages int64
}

// Scenario is a named, self-contained timeline: its own service config,
// its steps, and the SLOs that define success.
type Scenario struct {
	Name        string
	Description string
	Config      func() service.Config
	Steps       []Step
	SLO         SLO
}

// LabeledSnapshot is one step-boundary sample of the service counters.
type LabeledSnapshot struct {
	Label string
	At    time.Duration
	Snap  service.Snapshot
}

// Breach is one failed SLO check.
type Breach struct {
	Check    string
	Cohort   string
	Observed string
	Limit    string
}

func (b Breach) String() string {
	where := b.Check
	if b.Cohort != "" {
		where += "[" + b.Cohort + "]"
	}
	return fmt.Sprintf("%s: observed %s, limit %s", where, b.Observed, b.Limit)
}

// Run is the mutable state a step operates on. Steps run sequentially on
// one goroutine; only viewer/chat goroutines touch the guarded fields
// concurrently.
type Run struct {
	Svc *service.Service
	Cfg service.Config

	start time.Time

	mu       sync.Mutex
	slots    map[string]*broadcastmodel.Broadcast
	access   map[string]api.AccessVideoResponse
	regions  map[string]string // slot -> region a RegionOutage step downed
	cohorts  map[string][]*viewerSession
	order    []string // cohort labels in first-spawn order
	chatters []*chat.Client

	wg sync.WaitGroup // viewer sessions and chat senders
}

// Broadcast returns the broadcast bound to slot by a PickBroadcast step.
func (r *Run) Broadcast(slot string) (*broadcastmodel.Broadcast, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.slots[slot]
	if !ok {
		return nil, fmt.Errorf("slot %q not bound by any PickBroadcast step", slot)
	}
	return b, nil
}

func (r *Run) bind(slot string, b *broadcastmodel.Broadcast) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slots[slot] = b
}

// Elapsed is the time since scenario start.
func (r *Run) Elapsed() time.Duration { return time.Since(r.start) }
