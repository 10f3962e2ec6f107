package hls

import "sync/atomic"

// FillCounters is the block of cumulative fill counters a Replica and a
// TieredSource count into. A counter lives in the longest-lived object
// that reports it: a stand-alone replica or source allocates its own
// block, a POP hands one block to every replica and source it creates, so
// its totals stay monotonic however many broadcasts come and go — there
// is nothing to fold when a child is torn down, and a fill still in
// flight at that moment is counted like any other.
//
// FillStats is the plain-value twin; the two lists are kept in step by
// Load, the only place that names the fields one by one.
type FillCounters struct {
	Fills, FillBytes, FillErrors, SingleFlightHits   atomic.Int64
	PlaylistRefreshes, PlaylistBytes                 atomic.Int64
	StaleServes, Evictions, PrefetchDropped          atomic.Int64
	FillCapWaits, Warmups, FillRetries, NegativeHits atomic.Int64
	PeerFills, PeerFillBytes, PeerMisses, PeerSkips  atomic.Int64
	OriginFills                                      atomic.Int64
}

// FillStats is a point-in-time copy of a FillCounters block.
type FillStats struct {
	// Fills is the number of upstream segment fetches (peer or origin);
	// FillBytes their payload volume; FillErrors the failed ones
	// (including expired-404s and failed playlist fetches).
	Fills, FillBytes, FillErrors int64
	// SingleFlightHits counts requests that coalesced onto an already
	// in-flight upstream fetch instead of issuing their own.
	SingleFlightHits int64
	// PlaylistRefreshes counts the watch's playlist fetch attempts (one
	// per cut per polled replica when healthy); PlaylistBytes their volume.
	PlaylistRefreshes, PlaylistBytes int64
	// StaleServes counts playlist responses served while no watch was
	// confirming the window (a join after a warm-up, a replica nobody had
	// polled for two rounds) or while the watch's last round had failed.
	StaleServes int64
	// Evictions counts segments dropped by the sliding cache window.
	Evictions int64
	// PrefetchDropped counts listed segments a watch round did not
	// prefetch because the fill concurrency cap was full.
	PrefetchDropped int64
	// FillCapWaits counts demand fills that found the per-broadcast fill
	// concurrency cap saturated and had to queue — a non-zero value is the
	// observable signature of a capped hot broadcast.
	FillCapWaits int64
	// Warmups counts warm-ups that started a watch.
	Warmups int64
	// FillRetries counts extra upstream attempts spent on transient fill
	// failures inside the single-flight — Fills still counts operations,
	// not attempts, so Fills stays comparable across PRs.
	FillRetries int64
	// NegativeHits counts requests answered from the negative cache
	// without touching upstream.
	NegativeHits int64
	// PeerFills counts segments served by a peer (origin egress avoided);
	// PeerFillBytes their volume; PeerMisses the probes that came back
	// empty or failed. PeerSkips counts probes skipped in O(1) because
	// the peer's circuit breaker was open — no timeout was risked.
	// OriginFills counts segment fetches that fell through to the origin
	// (successful or not).
	PeerFills, PeerFillBytes, PeerMisses, PeerSkips, OriginFills int64
}

// Load copies the block. Each counter is read atomically; the copy as a
// whole is not one instant, which cumulative counters do not need.
func (c *FillCounters) Load() FillStats {
	return FillStats{
		Fills:             c.Fills.Load(),
		FillBytes:         c.FillBytes.Load(),
		FillErrors:        c.FillErrors.Load(),
		SingleFlightHits:  c.SingleFlightHits.Load(),
		PlaylistRefreshes: c.PlaylistRefreshes.Load(),
		PlaylistBytes:     c.PlaylistBytes.Load(),
		StaleServes:       c.StaleServes.Load(),
		Evictions:         c.Evictions.Load(),
		PrefetchDropped:   c.PrefetchDropped.Load(),
		FillCapWaits:      c.FillCapWaits.Load(),
		Warmups:           c.Warmups.Load(),
		FillRetries:       c.FillRetries.Load(),
		NegativeHits:      c.NegativeHits.Load(),
		PeerFills:         c.PeerFills.Load(),
		PeerFillBytes:     c.PeerFillBytes.Load(),
		PeerMisses:        c.PeerMisses.Load(),
		PeerSkips:         c.PeerSkips.Load(),
		OriginFills:       c.OriginFills.Load(),
	}
}
