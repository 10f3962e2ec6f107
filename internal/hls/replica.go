package hls

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file models the origin→edge fill path of the two-POP CDN the paper
// observed ("all HLS streams came from two IP addresses"): a POP does not
// hold the broadcast's segmenter, it holds a Replica that pulls playlists
// and segments from the origin tier on demand and in the background.
// Playlist staleness at the edge — the quantity that drives HLS join time
// and stalling in §4/§5 — becomes an explicit, measurable property.

// SegmentSource is the fill protocol a Replica pulls from: the origin's
// live playlist and its segments. FillClient implements it over HTTP;
// tests may supply in-process fakes.
type SegmentSource interface {
	FetchPlaylist(ctx context.Context) ([]byte, error)
	FetchSegment(ctx context.Context, seq int) ([]byte, error)
}

// UpstreamError reports a non-200 origin response, preserving the status
// so the edge can mirror 404s (expired segments) instead of masking them
// as gateway failures.
type UpstreamError struct {
	Status int
}

func (e *UpstreamError) Error() string {
	return fmt.Sprintf("hls: upstream status %d", e.Status)
}

// FillClient fetches origin data over HTTP — the POP-internal fill path.
type FillClient struct {
	// BaseURL is the origin directory holding playlist.m3u8 and segments.
	BaseURL string
	// HTTP may carry a shaped or instrumented transport; defaults to
	// http.DefaultClient.
	HTTP *http.Client
}

func (c *FillClient) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, &UpstreamError{Status: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// FetchPlaylist implements SegmentSource.
func (c *FillClient) FetchPlaylist(ctx context.Context) ([]byte, error) {
	return c.get(ctx, c.BaseURL+"/playlist.m3u8")
}

// FetchSegment implements SegmentSource.
func (c *FillClient) FetchSegment(ctx context.Context, seq int) ([]byte, error) {
	return c.get(ctx, c.BaseURL+"/"+SegmentName(seq))
}

// FillWorker is a POP's background fill executor: a small pool of
// goroutines draining a bounded job queue. Jobs block on origin HTTP
// fetches, so more than one worker is needed or a single slow broadcast
// would head-of-line-block every other replica's revalidation on the same
// POP. Background work (playlist revalidation, segment prefetch) is
// best-effort — when the queue is full the job is dropped and the demand
// path fills synchronously instead.
type FillWorker struct {
	ch   chan func()
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// Dropped counts jobs rejected because the queue was full or the
	// worker had stopped.
	Dropped atomic.Int64
}

// NewFillWorker starts a pool with the given queue depth and worker count.
func NewFillWorker(depth, workers int) *FillWorker {
	if depth <= 0 {
		depth = 256
	}
	if workers <= 0 {
		workers = 1
	}
	w := &FillWorker{
		ch:   make(chan func(), depth),
		quit: make(chan struct{}),
	}
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.run()
	}
	return w
}

func (w *FillWorker) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.quit:
			return
		case job := <-w.ch:
			job()
		}
	}
}

// Enqueue offers a job without blocking; it reports whether the job was
// accepted.
func (w *FillWorker) Enqueue(job func()) bool {
	select {
	case <-w.quit:
		w.Dropped.Add(1)
		return false
	default:
	}
	select {
	case w.ch <- job:
		return true
	default:
		w.Dropped.Add(1)
		return false
	}
}

// Stop terminates the pool; queued jobs are discarded. It is idempotent
// and returns after every worker goroutine has exited.
func (w *FillWorker) Stop() {
	w.once.Do(func() { close(w.quit) })
	w.wg.Wait()
}

// ReplicaConfig tunes one edge replica.
type ReplicaConfig struct {
	// Source is the origin fill path (required).
	Source SegmentSource
	// Window is the origin playlist window size; the replica keeps
	// Window+2 segments (the origin's own fetch horizon) and evicts older
	// ones, so edge cache occupancy slides in lockstep with the origin.
	Window int
	// TargetDuration is the origin's segment target; the playlist TTL
	// derives from it.
	TargetDuration time.Duration
	// PlaylistTTL is how long a cached playlist is served without
	// revalidation. Past the TTL the edge still answers immediately from
	// cache (stale-while-revalidate) but schedules an async refresh.
	// Defaults to TargetDuration/2, the staleness bound a polling player
	// effectively sees through a CDN edge.
	PlaylistTTL time.Duration
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
	// as FillCapWaits), background prefetches are skipped instead of tying
	// up fill workers. Defaults to DefaultFillConcurrency.
	MaxConcurrentFills int
	// Enqueue runs a background job (the POP's FillWorker); when nil the
	// replica spawns a goroutine per job.
	Enqueue func(func()) bool
	// Counters is the block the replica counts into — the parent's when a
	// longer-lived owner such as a POP reports for many replicas. Nil
	// gives the replica its own block.
	Counters *FillCounters
	// Now is the clock, injectable for deterministic staleness tests.
	Now func() time.Time
}

// fillResult is one in-flight origin fetch shared by every request that
// arrived while it was running (single-flight).
type fillResult struct {
	done chan struct{}
	data []byte
	pl   MediaPlaylist
	err  error
}

// Replica is a POP's async cache of one broadcast: segments fill
// origin→edge exactly once regardless of concurrent demand, the cache
// window slides with the origin's, and playlists are served
// stale-while-revalidate.
type Replica struct {
	src      SegmentSource
	keep     int
	ttl      time.Duration
	attempts int
	backoff  time.Duration
	negTTL   time.Duration
	enqueue  func(func()) bool
	now      func() time.Time
	// c is the cumulative counter block: the replica's own, or its
	// parent's (shared with sibling replicas).
	c *FillCounters
	// fillSem bounds concurrent upstream segment fetches (the
	// per-broadcast fill concurrency cap).
	fillSem chan struct{}

	mu       sync.Mutex
	segs     map[int][]byte
	maxSeq   int // highest sequence observed (stored or listed)
	inflight map[int]*fillResult
	negCache map[int]negEntry

	plRaw        []byte
	pl           MediaPlaylist
	plFetched    time.Time
	plInflight   *fillResult // cold-cache synchronous fetch
	plRefreshing bool        // async revalidation scheduled/running
	final        bool        // playlist carried #EXT-X-ENDLIST
}

// negEntry is one negative-cache record: the error a recent fill ended
// with and how long to keep answering with it.
type negEntry struct {
	err   error
	until time.Time
}

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
	if cfg.PlaylistTTL <= 0 {
		cfg.PlaylistTTL = cfg.TargetDuration / 2
	}
	if cfg.Enqueue == nil {
		cfg.Enqueue = func(job func()) bool { go job(); return true }
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
	return &Replica{
		src:      cfg.Source,
		keep:     cfg.Window + 2, // parity with Segmenter.maxKeep
		ttl:      cfg.PlaylistTTL,
		attempts: cfg.FillAttempts,
		backoff:  cfg.RetryBackoff,
		negTTL:   cfg.NegativeTTL,
		enqueue:  cfg.Enqueue,
		now:      cfg.Now,
		c:        cfg.Counters,
		fillSem:  make(chan struct{}, cfg.MaxConcurrentFills),
		segs:     map[int][]byte{},
		maxSeq:   -1,
		inflight: map[int]*fillResult{},
		negCache: map[int]negEntry{},
	}
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
	// PlaylistAge is the time since the cached playlist was fetched from
	// origin (0 when never fetched or final): the edge's playlist lag.
	PlaylistAge time.Duration
	// Final reports that the cached playlist carries #EXT-X-ENDLIST.
	Final bool
}

// Stats snapshots the replica's counters and gauges.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{FillStats: r.c.Load(), FillCap: cap(r.fillSem)}
	r.mu.Lock()
	st.CachedSegments = len(r.segs)
	st.Final = r.final
	if r.plRaw != nil && !r.final {
		st.PlaylistAge = r.now().Sub(r.plFetched)
	}
	r.mu.Unlock()
	return st
}

// Segment returns the segment's bytes, serving from cache when present
// and otherwise filling from origin exactly once no matter how many
// viewers ask concurrently. The fill itself runs detached from any single
// requester's context (bounded by fillTimeout): one viewer disconnecting
// must not fail the fetch for every coalesced waiter.
func (r *Replica) Segment(ctx context.Context, seq int) ([]byte, error) {
	r.mu.Lock()
	if data, ok := r.segs[seq]; ok {
		r.mu.Unlock()
		return data, nil
	}
	if e, ok := r.negCache[seq]; ok {
		if r.now().Before(e.until) {
			r.mu.Unlock()
			r.c.NegativeHits.Add(1)
			return nil, e.err
		}
		delete(r.negCache, seq)
	}
	f, ok := r.inflight[seq]
	if ok {
		r.mu.Unlock()
		r.c.SingleFlightHits.Add(1)
	} else {
		f = &fillResult{done: make(chan struct{})}
		r.inflight[seq] = f
		r.mu.Unlock()
		go r.fillSegment(seq, f)
	}
	select {
	case <-f.done:
		return f.data, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// acquireFill takes a slot of the per-broadcast fill cap, counting the
// acquisitions that had to wait for one.
func (r *Replica) acquireFill() {
	select {
	case r.fillSem <- struct{}{}:
	default:
		r.c.FillCapWaits.Add(1)
		r.fillSem <- struct{}{}
	}
}

func (r *Replica) releaseFill() { <-r.fillSem }

// fillSegment performs the detached origin fetch backing one single-flight
// entry and publishes the result to every waiter. The fetch holds one slot
// of the per-broadcast fill cap, so a broadcast with a segment storm queues
// here instead of monopolizing its peers and the origin link.
func (r *Replica) fillSegment(seq int, f *fillResult) {
	r.acquireFill()
	r.fillSegmentReserved(seq, f)
}

// fillSegmentReserved runs the upstream fetch with a fill-cap slot already
// held, publishes the result, and releases the slot. The attempt budget
// lives inside the single flight: a transient attempt failure is retried
// with jittered backoff (within the overall fillTimeout) before anything
// is published, so one lost request no longer fails every coalesced
// waiter. A fill that still ends in error seeds the negative cache.
func (r *Replica) fillSegmentReserved(seq int, f *fillResult) {
	defer r.releaseFill()
	var data []byte
	err := r.fillWithRetries(func(ctx context.Context) error {
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
	delete(r.inflight, seq)
	if err == nil {
		r.storeSegLocked(seq, data)
	} else if r.negTTL > 0 {
		now := r.now()
		r.sweepNegLocked(now)
		r.negCache[seq] = negEntry{err: err, until: now.Add(r.negTTL)}
	}
	r.mu.Unlock()
	f.data, f.err = data, err
	close(f.done)
}

// fillWithRetries runs one fill operation: up to r.attempts calls of do,
// each bounded by an equal share of the overall fillTimeout budget, with
// jittered doubling backoff between attempts. Terminal errors (4xx — the
// upstream answered) short-circuit.
func (r *Replica) fillWithRetries(do func(ctx context.Context) error) error {
	deadline := time.Now().Add(fillTimeout)
	var err error
	for attempt := 0; attempt < r.attempts; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		per := min(fillTimeout/time.Duration(r.attempts), remaining)
		ctx, cancel := context.WithTimeout(context.Background(), per)
		err = do(ctx)
		cancel()
		if err == nil || !retryableFill(err) {
			return err
		}
		wait := jitteredBackoff(r.backoff, attempt)
		if wait >= time.Until(deadline) {
			break
		}
		r.c.FillRetries.Add(1)
		time.Sleep(wait)
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

// storeSegLocked inserts a filled segment and slides the cache window: the
// replica keeps the same fetch horizon as the origin segmenter, so edge
// occupancy cannot grow past window+grace however long the broadcast runs.
func (r *Replica) storeSegLocked(seq int, data []byte) {
	if seq <= r.maxSeq-r.keep {
		// Already outside the window (a very late fill); do not resurrect.
		r.c.Evictions.Add(1)
		return
	}
	r.segs[seq] = data
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.evictLocked()
}

func (r *Replica) evictLocked() {
	for k := range r.segs {
		if k <= r.maxSeq-r.keep {
			delete(r.segs, k)
			r.c.Evictions.Add(1)
		}
	}
	r.sweepNegLocked(r.now())
}

// sweepNegLocked drops expired negative-cache entries. A lookup only
// retires the entry of the sequence being asked for again, and the
// entries are mostly 404s for sequences behind the window that nobody
// asks for twice: without the sweep (when the window slides and before
// every insert) a client walking old sequence numbers grows the map by
// one entry per sequence for as long as the replica lives.
func (r *Replica) sweepNegLocked(now time.Time) {
	for k, e := range r.negCache {
		if !now.Before(e.until) {
			delete(r.negCache, k)
		}
	}
}

// CachedSegment returns a segment only if the edge already holds it — the
// cache-only read backing the peer-fill protocol, which must never trigger
// a recursive fill.
func (r *Replica) CachedSegment(seq int) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.segs[seq]
	return data, ok
}

// WarmUp schedules a background playlist fetch — which prefetches the live
// window — so a freshly promoted or registered replica is warm before its
// first viewer arrives, instead of that viewer paying the cold-cache miss
// storm. On a replica that already holds a (possibly empty or stale)
// playlist it schedules a revalidation instead: a promotion-time warm-up
// runs before the first segment is cut, so the caller re-warms once
// content exists. Final playlists need no warming. It reports whether the
// warm-up was scheduled (or already pending), so a caller can retry a
// rejection from a saturated fill queue.
func (r *Replica) WarmUp() bool {
	r.mu.Lock()
	if r.plRaw != nil {
		scheduled := true
		if !r.final {
			scheduled = r.scheduleRefreshLocked()
			if scheduled {
				r.c.Warmups.Add(1)
			}
		}
		r.mu.Unlock()
		return scheduled
	}
	r.mu.Unlock()
	accepted := r.enqueue(func() {
		ctx, cancel := context.WithTimeout(context.Background(), fillTimeout)
		defer cancel()
		// Cold single-flight playlist fetch; its success path prefetches
		// every listed segment.
		r.Playlist(ctx)
	})
	if accepted {
		r.c.Warmups.Add(1)
	} else {
		r.c.PrefetchDropped.Add(1)
	}
	return accepted
}

// Playlist returns the marshalled playlist and its parsed form. A cached
// copy — fresh, stale, or final — is served immediately; staleness only
// schedules an asynchronous revalidation (stale-while-revalidate). Only a
// cold cache fetches synchronously, and concurrent cold requests share one
// origin fetch.
func (r *Replica) Playlist(ctx context.Context) ([]byte, MediaPlaylist, error) {
	r.mu.Lock()
	if r.plRaw != nil {
		raw, pl := r.plRaw, r.pl
		if !r.final && r.now().Sub(r.plFetched) > r.ttl {
			r.c.StaleServes.Add(1)
			r.scheduleRefreshLocked()
		}
		r.mu.Unlock()
		return raw, pl, nil
	}
	f := r.plInflight
	if f != nil {
		r.mu.Unlock()
		r.c.SingleFlightHits.Add(1)
	} else {
		f = &fillResult{done: make(chan struct{})}
		r.plInflight = f
		r.mu.Unlock()
		// Detached like segment fills: the cold fetch must survive the
		// initiating requester disconnecting, and shares the demand-path
		// retry budget — a cold viewer join must ride out a transient
		// origin fault.
		go func() {
			var raw []byte
			var pl MediaPlaylist
			err := r.fillWithRetries(func(fctx context.Context) error {
				var ferr error
				raw, pl, ferr = r.fetchPlaylist(fctx)
				return ferr
			})
			r.mu.Lock()
			r.plInflight = nil
			if err == nil {
				r.storePlaylistLocked(raw, pl)
			}
			r.mu.Unlock()
			f.data, f.pl, f.err = raw, pl, err
			close(f.done)
			if err == nil {
				r.prefetch(pl)
			}
		}()
	}
	select {
	case <-f.done:
		return f.data, f.pl, f.err
	case <-ctx.Done():
		return nil, MediaPlaylist{}, ctx.Err()
	}
}

// fetchPlaylist pulls and parses the origin playlist, counting the fill.
func (r *Replica) fetchPlaylist(ctx context.Context) ([]byte, MediaPlaylist, error) {
	raw, err := r.src.FetchPlaylist(ctx)
	r.c.PlaylistRefreshes.Add(1)
	if err != nil {
		r.c.FillErrors.Add(1)
		return nil, MediaPlaylist{}, err
	}
	r.c.PlaylistBytes.Add(int64(len(raw)))
	pl, err := ParseMediaPlaylist(raw)
	if err != nil {
		r.c.FillErrors.Add(1)
		return nil, MediaPlaylist{}, err
	}
	return raw, pl, nil
}

// storePlaylistLocked installs a fetched playlist and advances the
// eviction horizon to the newest listed sequence, so segments the edge
// never re-fetches still age out of the cache.
func (r *Replica) storePlaylistLocked(raw []byte, pl MediaPlaylist) {
	r.plRaw, r.pl = raw, pl
	r.plFetched = r.now()
	if pl.Ended {
		r.final = true
	}
	for _, s := range pl.Segments {
		if s.Sequence > r.maxSeq {
			r.maxSeq = s.Sequence
		}
	}
	r.evictLocked()
}

// prefetchSegment fills seq on a background worker if it is neither
// cached nor in flight AND a fill-cap slot is immediately free. The
// check-and-reserve is atomic (non-blocking send under the replica lock),
// so a capped hot broadcast can never park a fill worker behind its
// demand queue — the skipped segment is re-offered by the next
// stale-revalidate cycle.
func (r *Replica) prefetchSegment(seq int) {
	r.mu.Lock()
	if _, have := r.segs[seq]; have {
		r.mu.Unlock()
		return
	}
	if _, filling := r.inflight[seq]; filling {
		r.mu.Unlock()
		return
	}
	if e, bad := r.negCache[seq]; bad && r.now().Before(e.until) {
		// A demand fill just failed here; don't spend background budget
		// re-probing until the negative entry ages out.
		r.mu.Unlock()
		return
	}
	select {
	case r.fillSem <- struct{}{}:
	default:
		r.mu.Unlock()
		r.c.PrefetchDropped.Add(1)
		return
	}
	f := &fillResult{done: make(chan struct{})}
	r.inflight[seq] = f
	r.mu.Unlock()
	// Demand requests arriving now coalesce onto this fill (single-flight).
	r.fillSegmentReserved(seq, f)
}

// scheduleRefreshLocked queues one async revalidation; while it is
// pending, further stale serves do not pile up more refreshes. It reports
// whether a revalidation is now scheduled or already pending (false only
// when the fill queue rejected the job).
func (r *Replica) scheduleRefreshLocked() bool {
	if r.plRefreshing {
		return true
	}
	r.plRefreshing = true
	accepted := r.enqueue(func() {
		ctx, cancel := context.WithTimeout(context.Background(), fillTimeout)
		defer cancel()
		raw, pl, err := r.fetchPlaylist(ctx)
		r.mu.Lock()
		r.plRefreshing = false
		if err == nil {
			r.storePlaylistLocked(raw, pl)
		}
		r.mu.Unlock()
		if err == nil {
			r.prefetch(pl)
		}
	})
	if !accepted {
		r.plRefreshing = false
		r.c.PrefetchDropped.Add(1)
	}
	return accepted
}

// prefetch warms the cache with listed segments the edge does not hold
// yet, so a viewer arriving after the refresh hits warm segments instead
// of paying the origin round-trip.
func (r *Replica) prefetch(pl MediaPlaylist) {
	for _, s := range pl.Segments {
		seq := s.Sequence
		r.mu.Lock()
		_, have := r.segs[seq]
		_, filling := r.inflight[seq]
		r.mu.Unlock()
		if have || filling {
			continue
		}
		accepted := r.enqueue(func() { r.prefetchSegment(seq) })
		if !accepted {
			r.c.PrefetchDropped.Add(1)
		}
	}
}
