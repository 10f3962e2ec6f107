package hls

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file models the origin→edge fill path of the two-POP CDN the paper
// observed ("all HLS streams came from two IP addresses"): a POP does not
// hold the broadcast's segmenter, it holds a Replica that pulls playlists
// and segments from the origin tier on demand and in the background.
// Playlists arrive over one held request per polled replica, answered at
// the cut: the edge's share of playlist staleness — the quantity that
// drives HLS join time and stalling in §4/§5 — is one fill.

// SegmentSource is the fill protocol a Replica pulls from: the origin's
// live playlist and its segments. FillClient implements it over HTTP;
// tests may supply in-process fakes.
type SegmentSource interface {
	FetchPlaylist(ctx context.Context) ([]byte, error)
	FetchSegment(ctx context.Context, seq int) ([]byte, error)
}

// ReplicaConfig tunes one edge replica.
type ReplicaConfig struct {
	// Source is the origin fill path (required).
	Source SegmentSource
	// Window is the origin playlist window size; the replica keeps
	// Window+2 segments (the origin's own fetch horizon) and evicts older
	// ones, so edge cache occupancy slides in lockstep with the origin.
	Window int
	// TargetDuration is the origin's segment target: a source that cannot
	// hold is asked again no sooner than half of it; NegativeTTL derives.
	TargetDuration time.Duration
	// FillAttempts caps upstream attempts inside one single-flight fill:
	// a transient failure is retried (with backoff) instead of being
	// published to every coalesced waiter. Defaults to
	// DefaultFillAttempts; 404s and other 4xx are terminal.
	FillAttempts int
	// RetryBackoff is the base of the jittered doubling backoff between
	// attempts. Defaults to 50 ms.
	RetryBackoff time.Duration
	// NegativeTTL is how long a failed segment fill is answered from the
	// negative cache without re-probing upstream, shielding a struggling
	// origin from per-viewer retry storms. Defaults to TargetDuration/4.
	NegativeTTL time.Duration
	// MaxConcurrentFills caps this broadcast's concurrent upstream segment
	// fetches (origin or peer), so one hot broadcast cannot monopolize its
	// peers or the POP's egress: demand fills past the cap queue (counted
	// as FillCapWaits), prefetches past it are skipped. Defaults to
	// DefaultFillConcurrency.
	MaxConcurrentFills int
	// Counters is the block the replica counts into — the parent's when a
	// longer-lived owner such as a POP reports for many replicas. Nil
	// gives the replica its own block.
	Counters *FillCounters
	// Now is the clock, injectable for deterministic staleness tests.
	Now func() time.Time
}

// fillResult is one upstream fetch shared by every request that arrived
// while it was running (single-flight). In the replica's miss path a
// failed segment fill stays on as the sequence's negative entry: until is
// zero while the fetch runs and, on failure, is set under the replica
// lock (with data and err) before done closes.
type fillResult struct {
	done  chan struct{}
	data  []byte
	err   error
	until time.Time
}

// Replica is a POP's async cache of one broadcast: segments fill
// origin→edge exactly once regardless of concurrent demand, the cache
// window slides with the origin's, and the playlist is kept current by one
// watch goroutine that exists only while viewers poll.
type Replica struct {
	src      SegmentSource
	keep     int
	floor    time.Duration // least time between two rounds that do not advance
	attempts int
	backoff  time.Duration
	negTTL   time.Duration
	now      func() time.Time
	// c is the cumulative counter block: the replica's own, or its
	// parent's (shared with sibling replicas).
	c *FillCounters
	// fillSem bounds concurrent upstream segment fetches (the
	// per-broadcast fill concurrency cap).
	fillSem chan struct{}

	// mu guards fills, the miss path: per sequence, the fill in flight or
	// the failed one still answering for it. It also orders the stores of
	// win, which installLocked alone makes.
	mu    sync.Mutex
	fills map[int]*fillResult

	// win is what the replica serves, playlist and segments, read with no
	// lock. polled is raised by viewer polls and lowered by the watch once
	// a round; watch is watchOff or how the running watch's last round
	// went; cur is its round under way or, between rounds, the last one.
	win    atomic.Pointer[window]
	polled atomic.Bool
	watch  atomic.Int32
	cur    atomic.Pointer[fillResult]
	// ctx is the replica's lifetime: it carries the watch and every
	// prefetch the watch starts, and each of them counts in wg. Close
	// cancels it and waits on wg; wmu orders watch starts against each
	// other and against Close.
	ctx    context.Context
	cancel context.CancelFunc
	wmu    sync.Mutex
	wg     sync.WaitGroup
}

// window is one immutable state of the replica: the source's last answer,
// served to every poll, and the segments held, served to every hit, until
// the watch installs the next answer or a fill lands.
type window struct {
	raw    []byte // nil until the source first answers
	pl     MediaPlaylist
	newest int       // highest listed sequence, -1 when none
	at     time.Time // when the source confirmed it
	// segs are the held segments, none at or below top − keep; top is the
	// highest sequence stored or listed.
	segs []heldSegment
	top  int
}

type heldSegment struct {
	seq  int
	data []byte
}

// segment returns the held segment seq.
func (w *window) segment(seq int) ([]byte, bool) {
	for _, s := range w.segs {
		if s.seq == seq {
			return s.data, true
		}
	}
	return nil, false
}

const watchOff, watchOK, watchFailing int32 = 0, 1, 2

// DefaultFillConcurrency is the per-broadcast cap on concurrent upstream
// segment fetches.
const DefaultFillConcurrency = 4

// DefaultFillAttempts is the per-fill upstream attempt budget inside the
// single-flight.
const DefaultFillAttempts = 3

// fillTimeout is the overall budget of one fill operation — attempts,
// backoff and all — and bounds each background origin fetch. Each attempt
// gets an equal share of it.
const fillTimeout = 5 * time.Second

// NewReplica builds an edge replica pulling from cfg.Source.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindowSize
	}
	if cfg.TargetDuration <= 0 {
		cfg.TargetDuration = DefaultSegmentTarget
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxConcurrentFills <= 0 {
		cfg.MaxConcurrentFills = DefaultFillConcurrency
	}
	if cfg.FillAttempts <= 0 {
		cfg.FillAttempts = DefaultFillAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.NegativeTTL <= 0 {
		cfg.NegativeTTL = cfg.TargetDuration / 4
	}
	if cfg.Counters == nil {
		cfg.Counters = new(FillCounters)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		src:      cfg.Source,
		keep:     cfg.Window + 2, // parity with Segmenter.maxKeep
		floor:    min(cfg.TargetDuration/2, holdCap),
		attempts: cfg.FillAttempts,
		backoff:  cfg.RetryBackoff,
		negTTL:   cfg.NegativeTTL,
		now:      cfg.Now,
		c:        cfg.Counters,
		fillSem:  make(chan struct{}, cfg.MaxConcurrentFills),
		fills:    map[int]*fillResult{},
		ctx:      ctx,
		cancel:   cancel,
	}
	r.win.Store(&window{newest: -1, top: -1})
	return r
}

// ReplicaStats is a point-in-time view of a replica: the counters of the
// block it counts into (its parent's totals when it shares one) and its
// own gauges.
type ReplicaStats struct {
	FillStats
	// FillCap echoes the configured per-broadcast fill concurrency cap.
	FillCap int
	// CachedSegments is the current cache occupancy.
	CachedSegments int
	// PlaylistAge is the time since the source last confirmed the served
	// playlist (0 when none or final): it grows between cuts, up to one
	// segment duration on a healthy edge, and is not a staleness measure.
	PlaylistAge time.Duration
	// Final reports that the cached playlist carries #EXT-X-ENDLIST.
	Final bool
}

// Stats snapshots the replica's counters and gauges.
func (r *Replica) Stats() ReplicaStats {
	w := r.win.Load()
	st := ReplicaStats{FillStats: r.c.Load(), FillCap: cap(r.fillSem), CachedSegments: len(w.segs), Final: w.pl.Ended}
	if w.raw != nil && !st.Final {
		st.PlaylistAge = r.now().Sub(w.at)
	}
	return st
}

// Segment returns the segment's bytes, serving from cache when present
// and otherwise filling from origin exactly once no matter how many
// viewers ask concurrently. The fill itself runs detached from any single
// requester's context (bounded by fillTimeout): one viewer disconnecting
// must not fail the fetch for every coalesced waiter.
func (r *Replica) Segment(ctx context.Context, seq int) ([]byte, error) {
	if data, ok := r.win.Load().segment(seq); ok {
		return data, nil
	}
	r.mu.Lock()
	// Look again under mu: a fill that landed since is not fetched twice.
	if data, ok := r.win.Load().segment(seq); ok {
		r.mu.Unlock()
		return data, nil
	}
	f := r.pendingLocked(seq)
	switch {
	case f == nil:
		f = &fillResult{done: make(chan struct{})}
		r.fills[seq] = f
		r.mu.Unlock()
		go func() {
			r.acquireFill()
			r.fill(context.Background(), seq, f)
		}()
	case f.until.IsZero():
		r.mu.Unlock()
		r.c.SingleFlightHits.Add(1)
	default:
		r.mu.Unlock()
		r.c.NegativeHits.Add(1)
		return nil, f.err
	}
	select {
	case <-f.done:
		return f.data, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// pendingLocked returns seq's miss-path entry while it still answers for
// the sequence: a fill in flight, or a failed one inside its negative TTL.
func (r *Replica) pendingLocked(seq int) *fillResult {
	f := r.fills[seq]
	if f != nil && !f.until.IsZero() && !r.now().Before(f.until) {
		return nil
	}
	return f
}

// acquireFill takes a slot of the per-broadcast fill cap for a demand
// fill, counting the acquisitions that had to wait for one: a broadcast
// with a segment storm queues here instead of monopolizing its peers and
// the origin link.
func (r *Replica) acquireFill() {
	select {
	case r.fillSem <- struct{}{}:
	default:
		r.c.FillCapWaits.Add(1)
		r.fillSem <- struct{}{}
	}
}

// fill runs the upstream fetch behind one miss-path entry on a fill-cap
// slot its caller holds, publishes the result to every waiter, and frees
// the slot. The attempt budget lives inside the single flight: a
// transient attempt failure is retried with jittered backoff (within the
// overall fillTimeout) before anything is published, so one lost request
// no longer fails every coalesced waiter. A fill that still ends in error
// stays in fills as the sequence's negative entry for negTTL.
func (r *Replica) fill(ctx context.Context, seq int, f *fillResult) {
	defer func() { <-r.fillSem }()
	var data []byte
	err := r.fillWithRetries(ctx, 0, func(ctx context.Context) error {
		var aerr error
		data, aerr = r.src.FetchSegment(ctx, seq)
		return aerr
	})
	r.c.Fills.Add(1)
	if err != nil {
		r.c.FillErrors.Add(1)
	} else {
		r.c.FillBytes.Add(int64(len(data)))
	}

	r.mu.Lock()
	f.data, f.err = data, err
	if err == nil {
		delete(r.fills, seq)
		r.installLocked(nil, &heldSegment{seq, data})
	} else {
		now := r.now()
		f.until = now.Add(r.negTTL)
		r.sweepLocked(now)
	}
	r.mu.Unlock()
	close(f.done)
}

// fillWithRetries runs one fill operation: up to r.attempts calls of do,
// each bounded by an equal share of the overall fillTimeout budget, with
// jittered doubling backoff between attempts (none after the last).
// Terminal errors (4xx — the upstream answered) and the end of parent,
// during an attempt or a backoff, short-circuit. hold extends every
// deadline by the time the upstream may hold the request, so a hold is
// never what breakerFailure sees as a timeout.
func (r *Replica) fillWithRetries(parent context.Context, hold time.Duration, do func(ctx context.Context) error) error {
	deadline := time.Now().Add(fillTimeout + hold)
	var err error
	for attempt := 0; attempt < r.attempts; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		per := min(fillTimeout/time.Duration(r.attempts)+hold, remaining)
		ctx, cancel := context.WithTimeout(parent, per)
		err = do(ctx)
		cancel()
		if err == nil || !retryableFill(err) || parent.Err() != nil || attempt == r.attempts-1 {
			return err
		}
		wait := jitteredBackoff(r.backoff, attempt)
		if wait >= time.Until(deadline) {
			break
		}
		r.c.FillRetries.Add(1)
		select {
		case <-parent.Done():
			return err
		case <-time.After(wait):
		}
	}
	return err
}

// retryableFill reports whether a failed attempt is worth retrying: 4xx
// responses are authoritative (the segment is gone or unknown), while
// transport errors, timeouts, 5xx and an open breaker may clear.
func retryableFill(err error) bool {
	var ue *UpstreamError
	if errors.As(err, &ue) {
		return ue.Status >= http.StatusInternalServerError
	}
	return true
}

// jitteredBackoff doubles the base per attempt and jitters the result
// into [d/2, d] so coalesced broadcasts do not retry in lockstep.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	d := base << attempt
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// installLocked stores the window that succeeds the current one: the
// source's answer next, or a copy of the current one when nil, holding the
// current segments plus add, a landed fill, when not nil. The replica
// keeps the same fetch horizon as the origin segmenter: what falls at or
// below the new top − keep is not carried over, each drop an eviction. So
// occupancy cannot grow past window+grace however long the broadcast runs,
// segments the edge never re-fetches still age out as the playlist moves,
// and a very late fill is never resurrected.
func (r *Replica) installLocked(next *window, add *heldSegment) {
	cur := r.win.Load()
	if next == nil {
		c := *cur
		next = &c
	}
	next.top = max(cur.top, next.newest)
	segs := append(make([]heldSegment, 0, len(cur.segs)+1), cur.segs...)
	if add != nil {
		next.top = max(next.top, add.seq)
		segs = append(segs, *add)
	}
	next.segs = slices.DeleteFunc(segs, func(s heldSegment) bool { return s.seq <= next.top-r.keep })
	r.c.Evictions.Add(int64(len(segs) - len(next.segs)))
	r.win.Store(next)
	r.sweepLocked(r.now())
}

// sweepLocked drops the failed fills whose negative TTL has run out. A
// lookup only replaces the entry of the sequence being asked for again,
// and the entries are mostly 404s for sequences behind the window that
// nobody asks for twice: without the sweep (when the window slides and
// after every failure) a client walking old sequence numbers grows the map
// by one entry per sequence for as long as the replica lives.
func (r *Replica) sweepLocked(now time.Time) {
	for k, f := range r.fills {
		if !f.until.IsZero() && !now.Before(f.until) {
			delete(r.fills, k)
		}
	}
}

// CachedSegment returns a segment only if the edge already holds it — the
// cache-only read backing the peer-fill protocol, which must never trigger
// a recursive fill.
func (r *Replica) CachedSegment(seq int) ([]byte, bool) {
	return r.win.Load().segment(seq)
}

// WarmUp starts the watch without a viewer — one round, nobody polling —
// so a promoted or restored replica prefetches the live window instead of
// its first viewer paying the miss storm. A promotion precedes the first
// cut: the caller warms again once content exists.
func (r *Replica) WarmUp() {
	if _, started := r.startWatch(); started {
		r.c.Warmups.Add(1)
	}
}

// Close ends the watch and every prefetch it started, for good, and
// returns once they have exited: nothing is held open or fetching at the
// source on the replica's behalf afterwards (a demand fill in flight runs
// on, detached, for its waiters). The cache is still served.
func (r *Replica) Close() {
	r.wmu.Lock()
	r.cancel()
	r.wmu.Unlock()
	r.wg.Wait()
}

// Playlist returns the marshalled playlist and its parsed form. A window's
// playlist is served at once, an atomic load; served while no watch
// confirms it or the watch's last round failed, it counts stale and
// (re)starts the watch. Polls that find none yet share the watch's round
// or, between rounds, its last error.
func (r *Replica) Playlist(ctx context.Context) ([]byte, MediaPlaylist, error) {
	if !r.polled.Load() {
		r.polled.Store(true)
	}
	w := r.win.Load()
	if w.raw != nil && (w.pl.Ended || r.watch.Load() == watchOK) {
		return w.raw, w.pl, nil
	}
	rd, _ := r.startWatch()
	if w.raw != nil {
		r.c.StaleServes.Add(1)
	} else if w = r.win.Load(); w.raw == nil { // re-read: rd may be a later round than the first
		if rd == nil {
			return nil, MediaPlaylist{}, errors.New("hls: replica closed")
		}
		select {
		case <-rd.done:
		case <-ctx.Done():
			return nil, MediaPlaylist{}, ctx.Err()
		}
		if w = r.win.Load(); w.raw == nil {
			return nil, MediaPlaylist{}, rd.err
		}
	}
	return w.raw, w.pl, nil
}

// startWatch makes sure the watch runs, unless the replica is closed or
// its playlist final, and returns its round.
func (r *Replica) startWatch() (rd *fillResult, started bool) {
	r.wmu.Lock()
	if r.watch.Load() == watchOff && r.ctx.Err() == nil && !r.win.Load().pl.Ended {
		r.cur.Store(&fillResult{done: make(chan struct{})})
		r.watch.Store(watchOK)
		r.wg.Add(1)
		started = true
	}
	r.wmu.Unlock()
	if started {
		go r.runWatch(r.ctx)
	}
	return r.cur.Load(), started
}

// runWatch is the replica's one playlist loop: ask the source, install the
// answer, prefetch what it newly lists, ask again after the sequence now
// held, which a holding source answers at the next cut. The first round
// after a start or a failure is a plain GET: nothing a joining viewer or a
// half-open breaker's probe would wait a segment behind. A round that
// returns without advancing sooner than r.floor (a source that cannot
// hold) is paced to it; a failed one backs off. The loop ends on a final
// playlist, on Close, and after two rounds in a row without a viewer
// poll, a warm-up counting as the first.
func (r *Replica) runWatch(ctx context.Context) {
	defer r.wg.Done()
	after, idle := -1, 1
	for {
		began := time.Now()
		w, err := r.fetchWindow(ctx, after)
		state, pause := watchOK, time.Duration(0)
		if err != nil {
			state, after, pause = watchFailing, -1, jitteredBackoff(r.floor, 0)
		} else {
			if !w.pl.Ended && w.newest <= after {
				pause = r.floor - time.Since(began)
			}
			after = w.newest
			r.mu.Lock()
			r.installLocked(w, nil)
			r.mu.Unlock()
			r.prefetch(ctx, w.pl)
		}
		if idle++; r.polled.Swap(false) {
			idle = 0
		}
		if idle >= 2 || ctx.Err() != nil || err == nil && w.pl.Ended {
			state = watchOff
		}
		rd := r.cur.Load()
		rd.err = err
		close(rd.done)
		r.watch.Store(state)
		if state == watchOff {
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(pause):
		}
		r.cur.Store(&fillResult{done: make(chan struct{})})
	}
}

// fetchWindow is one round's fetch, the only place a replica asks for the
// playlist, on the demand path's retry budget: a viewer joining a cold
// replica must ride out a transient origin fault.
func (r *Replica) fetchWindow(ctx context.Context, after int) (w *window, err error) {
	var hold time.Duration
	if after >= 0 {
		ctx, hold = context.WithValue(ctx, afterKey{}, after), holdCap
	}
	err = r.fillWithRetries(ctx, hold, func(ctx context.Context) error {
		raw, err := r.src.FetchPlaylist(ctx)
		r.c.PlaylistRefreshes.Add(1)
		r.c.PlaylistBytes.Add(int64(len(raw)))
		var pl MediaPlaylist
		if err == nil {
			pl, err = ParseMediaPlaylist(raw)
		}
		if err != nil {
			r.c.FillErrors.Add(1)
			return err
		}
		w = &window{raw: raw, pl: pl, newest: pl.MediaSequence + len(pl.Segments) - 1, at: r.now()}
		return nil
	})
	return w, err
}

// prefetch warms the cache with listed segments the edge neither holds
// nor has pending, so a viewer arriving after the round hits warm segments
// instead of paying the origin round-trip. Each fill reserves a fill-cap
// slot under the replica lock without waiting: when the cap is full the
// segment is skipped (PrefetchDropped) and re-offered by the next round,
// so a capped hot broadcast queues nothing behind its demand fills and
// holds up no other broadcast. The fills run on ctx, the replica's
// lifetime, and count in wg — added here, on the watch goroutine, while
// the watch's own count is held — so Close ends them.
func (r *Replica) prefetch(ctx context.Context, pl MediaPlaylist) {
	for _, s := range pl.Segments {
		seq := s.Sequence
		r.mu.Lock()
		if _, have := r.win.Load().segment(seq); have || r.pendingLocked(seq) != nil {
			r.mu.Unlock()
			continue
		}
		select {
		case r.fillSem <- struct{}{}:
		default:
			r.mu.Unlock()
			r.c.PrefetchDropped.Add(1)
			continue
		}
		// Demand requests arriving now coalesce onto this fill.
		f := &fillResult{done: make(chan struct{})}
		r.fills[seq] = f
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.fill(ctx, seq, f)
		}()
	}
}
