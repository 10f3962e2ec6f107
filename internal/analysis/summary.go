package analysis

import (
	"fmt"
	"time"

	"periscope/internal/player"
	"periscope/internal/stats"
)

// MetricsSummary folds a cohort of per-viewer player.Metrics into the
// distribution figures the paper reports per condition (§5): join-latency
// quantiles, stall-ratio spread, and the single worst rebuffering
// interval anywhere in the cohort. Scenario SLO checks consume these
// instead of re-deriving quantiles per assertion.
type MetricsSummary struct {
	Sessions int

	JoinP50 time.Duration
	JoinP95 time.Duration
	JoinMax time.Duration

	StallRatioMean float64
	StallRatioP95  float64
	StallRatioMax  float64

	// DeliveryP50/P95 are quantiles of the sessions' mean delivery
	// latency, capture of a segment's last frame to its arrival (§5.1).
	DeliveryP50 time.Duration
	DeliveryP95 time.Duration

	// LongestStall is the worst single stall across all sessions, the
	// metric outage scenarios bound.
	LongestStall time.Duration
	// StallCount is the total number of stall events across sessions.
	StallCount int
	// Delivered is the total number of media chunks across sessions.
	Delivered int
}

// SummarizeMetrics computes the cohort summary. An empty input yields a
// zero summary with Sessions == 0 (callers treat that as "no data", not
// "perfect QoE").
func SummarizeMetrics(ms []player.Metrics) MetricsSummary {
	var s MetricsSummary
	s.Sessions = len(ms)
	if len(ms) == 0 {
		return s
	}
	joins := make([]float64, 0, len(ms))
	ratios := make([]float64, 0, len(ms))
	deliveries := make([]float64, 0, len(ms))
	for _, m := range ms {
		joins = append(joins, m.JoinTime.Seconds())
		ratios = append(ratios, m.StallRatio)
		deliveries = append(deliveries, m.DeliveryLatency.Seconds())
		if m.JoinTime > s.JoinMax {
			s.JoinMax = m.JoinTime
		}
		if m.StallRatio > s.StallRatioMax {
			s.StallRatioMax = m.StallRatio
		}
		if m.LongestStall > s.LongestStall {
			s.LongestStall = m.LongestStall
		}
		s.StallCount += m.StallCount
		s.Delivered += m.Delivered
	}
	s.JoinP50 = secondsDur(stats.Quantile(joins, 0.5))
	s.JoinP95 = secondsDur(stats.Quantile(joins, 0.95))
	s.StallRatioMean = stats.Mean(ratios)
	s.StallRatioP95 = stats.Quantile(ratios, 0.95)
	s.DeliveryP50 = secondsDur(stats.Quantile(deliveries, 0.5))
	s.DeliveryP95 = secondsDur(stats.Quantile(deliveries, 0.95))
	return s
}

func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// CohortSummary names one cohort's summary for table rendering.
type CohortSummary struct {
	Label   string
	Summary MetricsSummary
}

// SummaryTable renders cohort summaries side by side — one row per
// cohort, quantiles as columns — for scenario reports and CI logs.
func SummaryTable(id, title string, cohorts []CohortSummary) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"cohort", "sessions", "join p50", "join p95", "stall mean", "stall p95", "longest stall", "stalls", "delivery p50", "delivery p95"},
	}
	for _, c := range cohorts {
		s := c.Summary
		t.Rows = append(t.Rows, []string{
			c.Label,
			fmt.Sprintf("%d", s.Sessions),
			fmtDur(s.JoinP50),
			fmtDur(s.JoinP95),
			fmt.Sprintf("%.3f", s.StallRatioMean),
			fmt.Sprintf("%.3f", s.StallRatioP95),
			fmtDur(s.LongestStall),
			fmt.Sprintf("%d", s.StallCount),
			fmtDur(s.DeliveryP50),
			fmtDur(s.DeliveryP95),
		})
	}
	return t
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
