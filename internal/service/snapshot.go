package service

import (
	"sync/atomic"
	"time"

	"periscope/internal/chat"
	"periscope/internal/hls"
)

// deliveryCounters are the shard-level fan-out metrics: how often the
// drop-oldest policy fired, how many keyframe resyncs it forced, and how
// many hopeless viewers were disconnected. The Service owns the block and
// every hub counts into it, so the totals outlive the broadcasts.
type deliveryCounters struct {
	drops    atomic.Int64
	resyncs  atomic.Int64
	hopeless atomic.Int64
}

// DeliverySnapshot aggregates the RTMP fan-out plane across all hubs that
// have existed (live hubs plus broadcasts already ended).
type DeliverySnapshot struct {
	// LiveHubs is the number of running broadcast pipelines; Viewers the
	// currently attached RTMP viewers across them.
	LiveHubs int
	Viewers  int
	// Drops counts viewer-queue messages discarded by the drop-oldest
	// policy; Resyncs the keyframe (re)syncs the delivery path performed;
	// HopelessDisconnects the viewers evicted for falling ≥4096 drops
	// behind.
	Drops, Resyncs, HopelessDisconnects int64
}

// OriginSnapshot is the origin tier's view of CDN fill traffic.
type OriginSnapshot struct {
	// Region is where the origin tier is placed; POP→origin RTTs derive
	// from it.
	Region string
	// Broadcasts is the number of registered live origins. Replays counts
	// replay (VOD) mounts, which persist by design after their broadcast
	// ends and are therefore tracked apart from the live set.
	Broadcasts int
	Replays    int
	// Requests/Bytes count everything served to the POPs; the split
	// distinguishes playlist requests (one per cut per polled replica)
	// from segment fills. HeldPlaylists is how many of the former are held
	// open right now, waiting for the next cut.
	Requests, Bytes                   int64
	PlaylistRequests, SegmentRequests int64
	HeldPlaylists                     int64
}

// POPSnapshot is one edge's aggregated serving and fill metrics.
type POPSnapshot struct {
	Index int
	// Region is the POP's geographic placement; fill-link RTTs and the
	// nearest-peer order derive from it.
	Region string
	// Requests and Bytes count viewer-facing traffic.
	Requests, Bytes int64
	// Broadcasts is the number of registered replicas; CachedSegments the
	// total edge cache occupancy across them.
	Broadcasts, CachedSegments int
	// FillStats are the POP's cumulative fill counters (upstream fetches
	// split by peer/origin, coalesced requests, playlist fetches and
	// stale serves, evictions, warm-ups, retries, negative hits), counted
	// by every replica the POP has ever carried.
	hls.FillStats
	// Health is the POP's steering state ("ok", "degraded", "down");
	// FillErrorRate the windowed fill error rate behind it.
	Health        string
	FillErrorRate float64
	// OriginBreaker is the POP→origin breaker state ("closed", "open",
	// "half-open"); PeerBreakersOpen how many of the POP's peer-link
	// breakers are currently not closed. BreakerTrips/BreakerRejects
	// accumulate trips and fast-rejections across all of the POP's
	// fill-path breakers — cumulative through outage and recovery.
	OriginBreaker    string
	PeerBreakersOpen int
	BreakerTrips     int64
	BreakerRejects   int64
	// Reroutes counts viewers steered away because this (hash-preferred)
	// POP was unhealthy.
	Reroutes int64
	// PeerRequests counts fill probes arriving from peer POPs, PeerServes
	// the ones answered from cache, PeerBytesOut their volume — this
	// POP's contribution as a fill source for its cluster.
	PeerRequests, PeerServes, PeerBytesOut int64
	// MaxPlaylistAge is the longest time since the origin last confirmed a
	// live playlist at this edge: up to a segment duration when healthy,
	// beyond that the replica is not polled or its watch is failing.
	MaxPlaylistAge time.Duration
}

// Snapshot is a point-in-time view of the service's delivery plane: the
// RTMP fan-out metrics (PR 3) next to the CDN origin/edge fill metrics
// and the interaction plane (chat/hearts/presence, PR 7).
type Snapshot struct {
	Delivery DeliverySnapshot
	Origin   OriginSnapshot
	POPs     []POPSnapshot
	Chat     chat.Stats
}

// Snapshot collects the service's delivery-plane metrics.
func (s *Service) Snapshot() Snapshot {
	var snap Snapshot

	s.mu.RLock()
	snap.Delivery.LiveHubs = len(s.hubs)
	for _, h := range s.hubs {
		snap.Delivery.Viewers += h.ViewerCount()
	}
	s.mu.RUnlock()
	snap.Delivery.Drops = s.delivery.drops.Load()
	snap.Delivery.Resyncs = s.delivery.resyncs.Load()
	snap.Delivery.HopelessDisconnects = s.delivery.hopeless.Load()

	if s.origin != nil {
		live, replays, held := s.origin.counts()
		snap.Origin = OriginSnapshot{
			Region:           s.originRegion.Name,
			Broadcasts:       live,
			Replays:          replays,
			Requests:         s.origin.Requests.Load(),
			Bytes:            s.origin.Bytes.Load(),
			PlaylistRequests: s.origin.PlaylistRequests.Load(),
			SegmentRequests:  s.origin.SegmentRequests.Load(),
			HeldPlaylists:    held,
		}
	}
	for _, pop := range s.cdn {
		snap.POPs = append(snap.POPs, pop.stats())
	}
	if s.Chat != nil {
		snap.Chat = s.Chat.Snapshot()
	}
	return snap
}
