// Package capture is the tcpdump substitute's output format: traffic
// bucketed into fixed intervals, the timelines the power model consumes to
// drive its radio state machine.
package capture

import "time"

// Timeline is traffic bucketed into fixed intervals.
type Timeline struct {
	Interval time.Duration
	// Buckets holds bytes transferred per interval (both directions).
	Buckets []int64
}

// SyntheticTimeline builds a timeline directly from per-bucket byte counts
// (for model-tier scenarios with no real traffic).
func SyntheticTimeline(interval time.Duration, buckets []int64) *Timeline {
	return &Timeline{Interval: interval, Buckets: append([]int64(nil), buckets...)}
}
