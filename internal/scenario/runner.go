package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"periscope/internal/analysis"
	"periscope/internal/api"
	"periscope/internal/broadcastmodel"
	"periscope/internal/player"
	"periscope/internal/service"
)

// Result is everything a finished scenario produced: per-cohort QoE
// summaries, the step-boundary snapshot sequence, the SLO breaches (empty
// on success) and the rendered report.
type Result struct {
	Scenario  string
	Cohorts   []analysis.CohortSummary
	Snapshots []LabeledSnapshot
	Breaches  []Breach
	Report    string
}

// Execute boots a fresh service from the scenario's config, runs the
// timeline, evaluates the SLO block and renders the report. A non-nil
// error means the scenario could not run (a step failed); SLO breaches
// are not errors — they come back in Result.Breaches.
func Execute(sc Scenario) (*Result, error) {
	svc, err := service.Start(sc.Config())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: starting service: %w", sc.Name, err)
	}
	defer svc.Close()

	r := &Run{
		Svc:     svc,
		Cfg:     sc.Config(),
		start:   time.Now(),
		slots:   map[string]*broadcastmodel.Broadcast{},
		access:  map[string]api.AccessVideoResponse{},
		regions: map[string]string{},
		cohorts: map[string][]*viewerSession{},
	}

	steps := append([]Step(nil), sc.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })

	var snaps []LabeledSnapshot
	snap := func(label string) {
		snaps = append(snaps, LabeledSnapshot{Label: label, At: r.Elapsed(), Snap: svc.Snapshot()})
	}
	snap("start")
	for _, st := range steps {
		if wait := st.At - r.Elapsed(); wait > 0 {
			time.Sleep(wait)
		}
		if err := st.Do(r); err != nil {
			return nil, fmt.Errorf("scenario %s: step %q (t=%v): %w", sc.Name, st.Name, st.At, err)
		}
		snap(st.Name)
	}
	// Drain: every viewer session and chat sender finishes, then the chat
	// clients detach.
	r.wg.Wait()
	for _, cli := range r.chatters {
		cli.Close()
	}
	snap("final")

	res := &Result{Scenario: sc.Name, Snapshots: snaps}
	res.Cohorts = r.summarize()
	res.Breaches = evaluate(sc, r, res)
	res.Report = render(sc, res)
	return res, nil
}

// RunT executes the scenario under a test: step failures are fatal, the
// report is always logged, and every SLO breach is a test error. On
// breach, the report is also written to $SCENARIO_ARTIFACT_DIR (when
// set) so CI can upload the delta tables.
func RunT(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Report)
	if len(res.Breaches) > 0 {
		if dir := os.Getenv("SCENARIO_ARTIFACT_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err == nil {
				os.WriteFile(filepath.Join(dir, sc.Name+".txt"), []byte(res.Report), 0o644)
			}
		}
		for _, b := range res.Breaches {
			t.Errorf("SLO breach: %s", b)
		}
	}
	return res
}

// summarize folds each cohort's sessions into a MetricsSummary, in
// first-spawn order.
func (r *Run) summarize() []analysis.CohortSummary {
	var out []analysis.CohortSummary
	for _, label := range r.order {
		sum := analysis.SummarizeMetrics(r.cohortMetrics(label))
		out = append(out, analysis.CohortSummary{Label: label, Summary: sum})
	}
	return out
}

func (r *Run) cohortMetrics(label string) []player.Metrics {
	var ms []player.Metrics
	for _, vs := range r.sessions(label) {
		ms = append(ms, vs.metrics(r.segmentTarget()))
	}
	return ms
}

// sessions returns the cohort's sessions; label "" means all sessions.
func (r *Run) sessions(label string) []*viewerSession {
	if label == "" {
		var all []*viewerSession
		for _, l := range r.order {
			all = append(all, r.cohorts[l]...)
		}
		return all
	}
	return r.cohorts[label]
}

func (r *Run) segmentTarget() time.Duration {
	if r.Cfg.SegmentTarget > 0 {
		return r.Cfg.SegmentTarget
	}
	return 3600 * time.Millisecond
}

// evaluate checks every asserted SLO and returns the breaches.
func evaluate(sc Scenario, r *Run, res *Result) []Breach {
	var breaches []Breach
	fail := func(check, cohort, observed, limit string) {
		breaches = append(breaches, Breach{Check: check, Cohort: cohort, Observed: observed, Limit: limit})
	}
	slo := sc.SLO
	summary := func(label string) analysis.MetricsSummary {
		return analysis.SummarizeMetrics(r.cohortMetrics(label))
	}

	for cohort, max := range slo.MaxJoinP95 {
		if s := summary(cohort); s.Sessions == 0 {
			fail("join-p95", cohort, "no sessions", "≥1 session")
		} else if s.JoinP95 > max {
			fail("join-p95", cohort, s.JoinP95.String(), "≤ "+max.String())
		}
	}
	for cohort, max := range slo.MaxStallRatioP95 {
		if s := summary(cohort); s.Sessions == 0 {
			fail("stall-ratio-p95", cohort, "no sessions", "≥1 session")
		} else if s.StallRatioP95 > max {
			fail("stall-ratio-p95", cohort, fmt.Sprintf("%.3f", s.StallRatioP95), fmt.Sprintf("≤ %.3f", max))
		}
	}
	for cohort, max := range slo.MaxDeliveryP95 {
		if s := summary(cohort); s.Sessions == 0 {
			fail("delivery-p95", cohort, "no sessions", "≥1 session")
		} else if s.DeliveryP95 > max {
			fail("delivery-p95", cohort, s.DeliveryP95.Round(time.Millisecond).String(), "≤ "+max.String())
		}
	}
	for cohort, min := range slo.MinStallRatioMean {
		if s := summary(cohort); s.StallRatioMean < min {
			fail("stall-ratio-mean", cohort, fmt.Sprintf("%.3f", s.StallRatioMean), fmt.Sprintf("≥ %.3f", min))
		}
	}
	for cohort, max := range slo.MaxLongestStall {
		if s := summary(cohort); s.LongestStall > max {
			fail("longest-stall", cohort, s.LongestStall.String(), "≤ "+max.String())
		}
	}
	for cohort, min := range slo.MinDelivered {
		for i, vs := range r.sessions(cohort) {
			if len(vs.chunks) < min {
				fail("delivered", cohort, fmt.Sprintf("session %d fetched %d segments", i, len(vs.chunks)), fmt.Sprintf("≥ %d", min))
			}
		}
	}
	for cohort, min := range slo.MinProgress {
		for i, vs := range r.sessions(cohort) {
			if last := vs.lastArrival(); last < min {
				fail("progress", cohort, fmt.Sprintf("session %d last media at %v", i, last.Round(time.Millisecond)), "≥ "+min.String())
			}
		}
	}

	if len(slo.StallRatioOrdering) > 1 {
		for i := 0; i+1 < len(slo.StallRatioOrdering); i++ {
			worse, better := slo.StallRatioOrdering[i], slo.StallRatioOrdering[i+1]
			if summary(worse).StallRatioMean < summary(better).StallRatioMean {
				fail("stall-ordering", worse+"≥"+better,
					fmt.Sprintf("%.3f < %.3f", summary(worse).StallRatioMean, summary(better).StallRatioMean),
					"mean stall non-increasing along "+strings.Join(slo.StallRatioOrdering, " ≥ "))
			}
		}
	}
	if len(slo.JoinOrdering) > 1 {
		for i := 0; i+1 < len(slo.JoinOrdering); i++ {
			slower, faster := slo.JoinOrdering[i], slo.JoinOrdering[i+1]
			if summary(slower).JoinP50 <= summary(faster).JoinP50 {
				fail("join-ordering", slower+">"+faster,
					fmt.Sprintf("%v ≤ %v", summary(slower).JoinP50, summary(faster).JoinP50),
					"p50 join strictly decreasing along "+strings.Join(slo.JoinOrdering, " > "))
			}
		}
	}

	final := res.Snapshots[len(res.Snapshots)-1].Snap
	if slo.MaxOriginFillsPerSegment > 0 {
		slot := slo.OriginFillSlot
		segs := 0
		if b, err := r.Broadcast(slot); err == nil {
			segs = r.Svc.BroadcastSegments(b.ID)
		}
		if segs == 0 {
			fail("origin-egress", slot, "0 segments produced", "≥1 segment")
		} else {
			limit := int64(slo.MaxOriginFillsPerSegment*float64(segs)) + slo.OriginFillSlack
			if got := final.Origin.SegmentRequests; got > limit {
				fail("origin-egress", slot,
					fmt.Sprintf("%d origin fills for %d segments", got, segs),
					fmt.Sprintf("≤ %.1f/segment + %d", slo.MaxOriginFillsPerSegment, slo.OriginFillSlack))
			}
		}
	}

	if slo.MonotonicCounters {
		for i := 1; i < len(res.Snapshots); i++ {
			prev, cur := res.Snapshots[i-1], res.Snapshots[i]
			for _, dip := range counterDips(prev.Snap, cur.Snap) {
				fail("monotonic", dip, fmt.Sprintf("dipped between %q and %q", prev.Label, cur.Label), "never decreases")
			}
		}
	}

	if slo.NoResidualOrigins && final.Origin.Broadcasts != 0 {
		fail("residual-origins", "", fmt.Sprintf("%d broadcasts still registered", final.Origin.Broadcasts), "0")
	}
	if slo.NoResidualRooms && final.Chat.Rooms != 0 {
		fail("residual-rooms", "", fmt.Sprintf("%d rooms still open", final.Chat.Rooms), "0")
	}

	var reroutes, peerFills, warmups int64
	for _, p := range final.POPs {
		reroutes += p.Reroutes
		peerFills += p.PeerFills
		warmups += p.Warmups
	}
	if slo.MinReroutes > 0 && reroutes < slo.MinReroutes {
		fail("reroutes", "", fmt.Sprintf("%d", reroutes), fmt.Sprintf("≥ %d", slo.MinReroutes))
	}
	if slo.MinPeerFills > 0 && peerFills < slo.MinPeerFills {
		fail("peer-fills", "", fmt.Sprintf("%d", peerFills), fmt.Sprintf("≥ %d", slo.MinPeerFills))
	}
	if slo.MinWarmups > 0 && warmups < slo.MinWarmups {
		fail("warmups", "", fmt.Sprintf("%d", warmups), fmt.Sprintf("≥ %d", slo.MinWarmups))
	}
	if slo.MinChatMessages > 0 && final.Chat.MessagesIn < slo.MinChatMessages {
		fail("chat-messages", "", fmt.Sprintf("%d", final.Chat.MessagesIn), fmt.Sprintf("≥ %d", slo.MinChatMessages))
	}
	return breaches
}

// counterDips compares the cumulative counters of two snapshots and names
// every one that went backwards.
func counterDips(a, b service.Snapshot) []string {
	var dips []string
	dip := func(name string, x, y int64) {
		if y < x {
			dips = append(dips, fmt.Sprintf("%s (%d → %d)", name, x, y))
		}
	}
	dip("delivery.drops", a.Delivery.Drops, b.Delivery.Drops)
	dip("delivery.resyncs", a.Delivery.Resyncs, b.Delivery.Resyncs)
	dip("delivery.hopeless", a.Delivery.HopelessDisconnects, b.Delivery.HopelessDisconnects)
	dip("origin.requests", a.Origin.Requests, b.Origin.Requests)
	dip("origin.bytes", a.Origin.Bytes, b.Origin.Bytes)
	dip("origin.segment-requests", a.Origin.SegmentRequests, b.Origin.SegmentRequests)
	for i := range a.POPs {
		if i >= len(b.POPs) {
			break
		}
		p, q := a.POPs[i], b.POPs[i]
		pre := fmt.Sprintf("pop%d.", i)
		dip(pre+"requests", p.Requests, q.Requests)
		dip(pre+"fills", p.Fills, q.Fills)
		dip(pre+"peer-fills", p.PeerFills, q.PeerFills)
		dip(pre+"origin-fills", p.OriginFills, q.OriginFills)
		dip(pre+"reroutes", p.Reroutes, q.Reroutes)
		dip(pre+"fill-retries", p.FillRetries, q.FillRetries)
		dip(pre+"breaker-trips", p.BreakerTrips, q.BreakerTrips)
		dip(pre+"warmups", p.Warmups, q.Warmups)
		dip(pre+"fill-cap-waits", p.FillCapWaits, q.FillCapWaits)
	}
	dip("chat.rooms-opened", a.Chat.RoomsOpened, b.Chat.RoomsOpened)
	dip("chat.rooms-closed", a.Chat.RoomsClosed, b.Chat.RoomsClosed)
	dip("chat.members-joined", a.Chat.MembersJoined, b.Chat.MembersJoined)
	dip("chat.messages-in", a.Chat.MessagesIn, b.Chat.MessagesIn)
	dip("chat.messages-out", a.Chat.MessagesOut, b.Chat.MessagesOut)
	dip("chat.heart-taps", a.Chat.HeartTaps, b.Chat.HeartTaps)
	return dips
}

// render builds the scenario report: per-cohort QoE summaries plus the
// SLO delta table (every breach with observed vs. limit).
func render(sc Scenario, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s — %s\n\n", sc.Name, sc.Description)
	if len(res.Cohorts) > 0 {
		b.WriteString(analysis.SummaryTable("scenario-qoe", "per-cohort QoE ("+sc.Name+")", res.Cohorts).Render())
		b.WriteString("\n")
	}
	status := analysis.Table{
		ID:     "scenario-slo",
		Title:  fmt.Sprintf("SLO deltas (%s): %d breach(es)", sc.Name, len(res.Breaches)),
		Header: []string{"check", "cohort", "observed", "limit", "status"},
	}
	for _, br := range res.Breaches {
		status.Rows = append(status.Rows, []string{br.Check, br.Cohort, br.Observed, br.Limit, "BREACH"})
	}
	if len(res.Breaches) == 0 {
		status.Rows = append(status.Rows, []string{"all asserted SLOs", "", "within limits", "", "ok"})
	}
	b.WriteString(status.Render())
	b.WriteString("\n")
	last := res.Snapshots[len(res.Snapshots)-1]
	b.WriteString(analysis.DeliveryTable(last.Snap).Render())
	return b.String()
}
