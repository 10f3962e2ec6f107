package service

import (
	"net/http"
	"testing"

	"periscope/internal/api"
	"periscope/internal/leakcheck"
)

// TestMain enforces the runtime half of the gostop contract: every
// goroutine the service plane starts (hub fanout shards, replica watches
// and prefetches, churn loops) must be gone once the tests finish tearing down. The
// cleanup drops idle keep-alive sockets first: both the api package's
// shared transport and http.DefaultTransport (used by the tests' plain
// http.Get calls) hold warm connections by design, and their
// readLoop/writeLoop goroutines are not leaks.
func TestMain(m *testing.M) {
	leakcheck.Main(m, leakcheck.Cleanup(func() {
		api.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
	}))
}
