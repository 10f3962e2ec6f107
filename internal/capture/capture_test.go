package capture

import (
	"testing"
	"time"
)

func TestSyntheticTimeline(t *testing.T) {
	buckets := []int64{125000, 0, 125000}
	tl := SyntheticTimeline(time.Second, buckets)
	if tl.Interval != time.Second || len(tl.Buckets) != 3 || tl.Buckets[0] != 125000 || tl.Buckets[2] != 125000 {
		t.Errorf("timeline = %+v", tl)
	}
	buckets[0] = 0
	if tl.Buckets[0] != 125000 {
		t.Error("timeline shares the caller's bucket slice")
	}
}
