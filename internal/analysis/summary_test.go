package analysis

import (
	"strings"
	"testing"
	"time"

	"periscope/internal/player"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

func TestSummarizeMetrics(t *testing.T) {
	mk := func(join, longest int, ratio float64, stalls, delivered int) player.Metrics {
		return player.Metrics{
			JoinTime:     ms(join),
			LongestStall: ms(longest),
			StallRatio:   ratio,
			StallCount:   stalls,
			Delivered:    delivered,
		}
	}

	cases := []struct {
		name string
		in   []player.Metrics
		want MetricsSummary
	}{
		{
			name: "empty",
			in:   nil,
			want: MetricsSummary{},
		},
		{
			name: "single session",
			in:   []player.Metrics{mk(800, 1200, 0.25, 2, 30)},
			want: MetricsSummary{
				Sessions: 1,
				JoinP50:  ms(800), JoinP95: ms(800), JoinMax: ms(800),
				StallRatioMean: 0.25, StallRatioP95: 0.25, StallRatioMax: 0.25,
				LongestStall: ms(1200), StallCount: 2, Delivered: 30,
			},
		},
		{
			name: "uniform cohort collapses to the common value",
			in: []player.Metrics{
				mk(500, 0, 0, 0, 10),
				mk(500, 0, 0, 0, 10),
				mk(500, 0, 0, 0, 10),
			},
			want: MetricsSummary{
				Sessions: 3,
				JoinP50:  ms(500), JoinP95: ms(500), JoinMax: ms(500),
				Delivered: 30,
			},
		},
		{
			name: "spread cohort: p50 between extremes, p95 near max, maxes exact",
			in: []player.Metrics{
				mk(100, 0, 0.0, 0, 5),
				mk(200, 300, 0.1, 1, 5),
				mk(300, 600, 0.2, 2, 5),
				mk(400, 900, 0.3, 3, 5),
				mk(2000, 4000, 0.9, 7, 5),
			},
			want: MetricsSummary{
				Sessions: 5,
				JoinP50:  ms(300), JoinMax: ms(2000),
				StallRatioMean: 0.3, StallRatioMax: 0.9,
				LongestStall: ms(4000), StallCount: 13, Delivered: 25,
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SummarizeMetrics(tc.in)
			if got.Sessions != tc.want.Sessions {
				t.Errorf("Sessions = %d, want %d", got.Sessions, tc.want.Sessions)
			}
			if got.JoinP50 != tc.want.JoinP50 {
				t.Errorf("JoinP50 = %v, want %v", got.JoinP50, tc.want.JoinP50)
			}
			if tc.want.JoinP95 != 0 && got.JoinP95 != tc.want.JoinP95 {
				t.Errorf("JoinP95 = %v, want %v", got.JoinP95, tc.want.JoinP95)
			}
			if got.JoinMax != tc.want.JoinMax {
				t.Errorf("JoinMax = %v, want %v", got.JoinMax, tc.want.JoinMax)
			}
			if diff := got.StallRatioMean - tc.want.StallRatioMean; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("StallRatioMean = %v, want %v", got.StallRatioMean, tc.want.StallRatioMean)
			}
			if got.StallRatioMax != tc.want.StallRatioMax {
				t.Errorf("StallRatioMax = %v, want %v", got.StallRatioMax, tc.want.StallRatioMax)
			}
			if got.LongestStall != tc.want.LongestStall {
				t.Errorf("LongestStall = %v, want %v", got.LongestStall, tc.want.LongestStall)
			}
			if got.StallCount != tc.want.StallCount {
				t.Errorf("StallCount = %d, want %d", got.StallCount, tc.want.StallCount)
			}
			if got.Delivered != tc.want.Delivered {
				t.Errorf("Delivered = %d, want %d", got.Delivered, tc.want.Delivered)
			}
		})
	}
}

func TestSummarizeMetricsQuantileOrdering(t *testing.T) {
	// Quantiles of a spread cohort must be monotone: p50 <= p95 <= max,
	// and p95 must sit above the bulk when one tail session dominates.
	var in []player.Metrics
	for i := 0; i < 19; i++ {
		in = append(in, player.Metrics{JoinTime: ms(100), StallRatio: 0.01})
	}
	in = append(in, player.Metrics{JoinTime: ms(5000), StallRatio: 0.8})
	s := SummarizeMetrics(in)
	if !(s.JoinP50 <= s.JoinP95 && s.JoinP95 <= s.JoinMax) {
		t.Errorf("join quantiles not monotone: p50=%v p95=%v max=%v", s.JoinP50, s.JoinP95, s.JoinMax)
	}
	if s.JoinP50 != ms(100) {
		t.Errorf("JoinP50 = %v, want 100ms (bulk)", s.JoinP50)
	}
	if s.JoinP95 <= ms(100) {
		t.Errorf("JoinP95 = %v, want above the bulk with a 5%% tail", s.JoinP95)
	}
	if !(s.StallRatioP95 <= s.StallRatioMax) {
		t.Errorf("stall quantiles not monotone: p95=%v max=%v", s.StallRatioP95, s.StallRatioMax)
	}
}

func TestSummarizeMetricsDelivery(t *testing.T) {
	var in []player.Metrics
	for _, d := range []int{100, 200, 300, 400, 2000} {
		in = append(in, player.Metrics{DeliveryLatency: ms(d)})
	}
	s := SummarizeMetrics(in)
	if s.DeliveryP50 != ms(300) {
		t.Errorf("DeliveryP50 = %v, want 300ms", s.DeliveryP50)
	}
	if s.DeliveryP95 <= ms(400) || s.DeliveryP95 > ms(2000) {
		t.Errorf("DeliveryP95 = %v, want in (400ms, 2s]", s.DeliveryP95)
	}
}

func TestSummaryTableRenders(t *testing.T) {
	tab := SummaryTable("scenario-qoe", "per-cohort QoE", []CohortSummary{
		{Label: "wifi", Summary: SummarizeMetrics([]player.Metrics{{JoinTime: ms(120)}})},
		{Label: "3g", Summary: SummarizeMetrics([]player.Metrics{{JoinTime: ms(900), StallRatio: 0.4, StallCount: 3, LongestStall: ms(2500), DeliveryLatency: ms(1950)}})},
	})
	out := tab.Render()
	for _, want := range []string{"cohort", "wifi", "3g", "join p95", "longest stall", "0.400", "2.5s", "delivery p95", "1.95s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
