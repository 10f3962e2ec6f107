package chat

import (
	"testing"

	"periscope/internal/leakcheck"
)

// TestMain enforces the runtime half of the gostop contract: room
// shard workers, control loops and generators must all exit when their
// room closes.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
