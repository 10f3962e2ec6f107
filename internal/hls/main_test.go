package hls

import (
	"testing"

	"periscope/internal/leakcheck"
)

// TestMain enforces the runtime half of the gostop contract: a replica's
// watch and prefetches, and the origin's helpers, must exit with their
// owners.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
