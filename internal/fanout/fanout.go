// Package fanout is the one push-delivery machine of the testbed: the
// RTMP media hub (service) and the WebSocket chat room (chat) both fan a
// message out to their attached connections through a Group.
//
// A publisher hands one descriptor to each of K shard workers, so its
// inline cost is O(shards), not O(members). Each worker walks its disjoint
// subset of members and offers every admitted member a queue item on a
// bounded async queue drained by that member's own writer goroutine: a slow
// or stalled socket never blocks its shard-mates. A full queue drops its
// oldest item (drop-oldest never blocks), and a member penalised that way
// too often is hopeless — evicted exactly once. What differs between the
// planes (which members see a message, what a queue slot holds, how it is
// written and released) is supplied as Hooks bound at construction; nothing
// here knows which plane it serves.
package fanout

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Hooks are the plane-specific halves of delivery. All six are required.
// Admit and Discard can run under a shard lock and must not block or call
// back into the Group; the others run with no lock held.
type Hooks[K Conn, S, D, Q any] struct {
	// Share is called once for each shard a published descriptor is handed
	// to, before the handoff; Done is called exactly once for each Share
	// when that shard has finished with the descriptor. A descriptor that
	// carries a reference count takes one in Share and drops it in Done.
	Share func(d D)
	// Done also reports what the shard did with d, so callers bump their
	// counters once per batch instead of once per member. The tally is zero
	// for a descriptor discarded undelivered by Stop.
	Done func(d D, t Tally)
	// Admit decides whether member m receives d and builds its queue item;
	// ok=false skips the member. It owns m.State and may m.Push items that
	// must precede the returned one.
	Admit func(m *Member[K, S, Q], d D) (q Q, ok bool)
	// Send writes one item to the member's connection from its writer
	// goroutine and consumes the item. An error closes the connection and
	// ends the writer; the owner's read side then notices and Removes it.
	Send func(key K, q Q) error
	// Discard consumes an item that will never be sent (dropped as oldest,
	// or still queued when its member detached). Every queued item goes to
	// exactly one of Send and Discard.
	Discard func(q Q)
	// Evicted is called exactly once for a member removed as hopeless,
	// after it has left the Group and its connection has been closed; a
	// concurrent Remove of the same key reports false.
	Evicted func(key K)
}

// Conn is what the core needs of a member's connection, which is also the
// member's key: identity, and a Close that unblocks a writer stuck in Send.
type Conn interface {
	comparable
	Close() error
}

// Tally is what one shard did with one descriptor.
type Tally struct {
	Admitted int // members offered the item (including those that dropped)
	Skipped  int // members Admit turned down
	Dropped  int // drop-oldest penalties among the admitted
}

// Member is one attached connection: its bounded queue plus the caller's
// per-member state.
type Member[K Conn, S, Q any] struct {
	Key K
	// State is caller-owned; only Admit touches it after Attach, and Admit
	// calls for one member are serialised by its shard lock.
	State S

	ch      chan Q // closed by whoever detaches the member from its shard
	shard   int
	drops   int // guarded by the shard lock
	discard func(Q)
}

// Drops reports how many drop-oldest penalties the member has taken. Like
// State it belongs to the delivery walk: only Admit may call it.
func (m *Member[K, S, Q]) Drops() int { return m.drops }

// Push offers q to the member's queue without ever blocking. When the
// queue is full the oldest entry is discarded to make room, and Push
// reports true. If q still cannot be queued it is discarded, so the
// caller's handoff is unconditional. Outside the core only Admit may call
// it (the shard lock serialises producers); it does not count a penalty.
func (m *Member[K, S, Q]) Push(q Q) (dropped bool) {
	select {
	case m.ch <- q:
		return false
	default:
	}
	select {
	case old := <-m.ch:
		m.discard(old)
	default:
	}
	select {
	case m.ch <- q:
	default:
		m.discard(q)
	}
	return true
}

// drain discards everything queued right now. It is safe against a late
// consume by the writer: each item is received by exactly one of them.
func (m *Member[K, S, Q]) drain() {
	for {
		select {
		case q, ok := <-m.ch:
			if !ok {
				return
			}
			m.discard(q)
		default:
			return
		}
	}
}

// stop ends the member's writer and discards its queue. Only whoever took
// the member out of its shard calls it: every Push runs under the shard
// lock on a listed member, so nothing can send on the closed channel.
func (m *Member[K, S, Q]) stop() {
	close(m.ch)
	m.drain()
}

// shard owns a disjoint subset of the members and the queue of descriptors
// its worker has yet to deliver. Its member list is the single arbiter
// between Remove, hopeless eviction and Stop: whoever takes a member out of
// it (under mu) stops that member, nobody else does.
type shard[K Conn, S, D, Q any] struct {
	ch chan D
	// n mirrors len(members) so Publish can skip an empty shard without
	// taking mu: most simulated broadcasts have 0-1 viewers, and an idle
	// group must not pay K Shares and worker wakeups per message. A member
	// attaching in the skip window only misses a message it raced anyway.
	n atomic.Int32

	mu      sync.Mutex
	members []*Member[K, S, Q]
	stopped bool
}

// removeAt swap-deletes members[i]; the caller holds mu.
func (sh *shard[K, S, D, Q]) removeAt(i int) {
	last := len(sh.members) - 1
	sh.members[i] = sh.members[last]
	sh.members[last] = nil
	sh.members = sh.members[:last]
	sh.n.Store(int32(last))
}

// Group fans descriptors of type D out to members keyed by K, each with
// caller state S and a queue of items Q.
type Group[K Conn, S, D, Q any] struct {
	hooks       Hooks[K, S, D, Q]
	shards      []*shard[K, S, D, Q]
	memberDepth int
	hopeless    int
	quit        chan struct{}

	mu      sync.Mutex
	byKey   map[K]*Member[K, S, Q]
	next    int // round-robin attach cursor
	stopped bool
}

// DefaultShards picks a shard count: one worker per core, capped — past
// the cap per-shard batches are large enough that more workers only add
// wakeup overhead.
func DefaultShards(limit int) int {
	return max(1, min(runtime.GOMAXPROCS(0), limit))
}

// New builds a Group and starts its shard workers. shardDepth bounds each
// shard's descriptor queue (workers never block, so it only absorbs
// scheduling jitter; a publisher that outruns it blocks on the worker,
// never on a member socket). memberDepth bounds each member's queue, and
// hopeless is the number of penalties after which a member is evicted.
func New[K Conn, S, D, Q any](shards, shardDepth, memberDepth, hopeless int, hooks Hooks[K, S, D, Q]) *Group[K, S, D, Q] {
	g := &Group[K, S, D, Q]{
		hooks:       hooks,
		memberDepth: memberDepth,
		hopeless:    hopeless,
		quit:        make(chan struct{}),
		byKey:       map[K]*Member[K, S, Q]{},
	}
	for i := 0; i < max(1, shards); i++ {
		sh := &shard[K, S, D, Q]{ch: make(chan D, shardDepth)}
		g.shards = append(g.shards, sh)
		go g.work(sh)
	}
	return g
}

// Attach registers a member on the next shard round-robin, queues first
// ahead of anything a delivery can offer it, and starts its writer. Once
// the Group has stopped it reports false instead, with no goroutine
// started and first discarded: the handoff of first is unconditional.
func (g *Group[K, S, D, Q]) Attach(key K, state S, first ...Q) bool {
	m := &Member[K, S, Q]{
		Key:     key,
		State:   state,
		ch:      make(chan Q, g.memberDepth),
		discard: g.hooks.Discard,
	}
	g.mu.Lock()
	m.shard = g.next % len(g.shards)
	g.next++
	g.byKey[key] = m
	g.mu.Unlock()

	sh := g.shards[m.shard]
	sh.mu.Lock()
	if sh.stopped {
		// Nothing would ever stop a member attached now, so undo the
		// registration instead. The shard's flag is the one check that
		// cannot race Stop: it is set under the lock that lists members.
		sh.mu.Unlock()
		g.forget(m)
		for _, q := range first {
			m.discard(q)
		}
		return false
	}
	for _, q := range first {
		m.Push(q)
	}
	sh.members = append(sh.members, m)
	sh.n.Store(int32(len(sh.members)))
	sh.mu.Unlock()
	go g.write(m)
	return true
}

// Remove detaches key's member, reporting whether this call was the one
// that detached it (false when it was never attached, already evicted, or
// the Group stopped).
func (g *Group[K, S, D, Q]) Remove(key K) bool {
	g.mu.Lock()
	m := g.byKey[key]
	delete(g.byKey, key)
	g.mu.Unlock()
	if m == nil {
		return false
	}
	sh := g.shards[m.shard]
	sh.mu.Lock()
	i := slices.Index(sh.members, m)
	if i >= 0 {
		sh.removeAt(i)
	}
	sh.mu.Unlock()
	if i >= 0 {
		m.stop()
	}
	return i >= 0
}

// forget drops m's registration unless the key has been re-attached since.
func (g *Group[K, S, D, Q]) forget(m *Member[K, S, Q]) {
	g.mu.Lock()
	if g.byKey[m.Key] == m {
		delete(g.byKey, m.Key)
	}
	g.mu.Unlock()
}

// Len reports the members currently attached.
func (g *Group[K, S, D, Q]) Len() int {
	n := 0
	for _, sh := range g.shards {
		n += int(sh.n.Load())
	}
	return n
}

// Publish hands d to every shard that has members.
func (g *Group[K, S, D, Q]) Publish(d D) {
	for _, sh := range g.shards {
		if sh.n.Load() == 0 {
			continue
		}
		g.hooks.Share(d)
		// A send that races Stop can strand d in the channel after the
		// worker's final drain; its share is then never Done, which costs a
		// pooled buffer one trip through the GC and nothing else.
		select {
		case sh.ch <- d:
		case <-g.quit:
			g.hooks.Done(d, Tally{})
		}
	}
}

// work is one shard's worker loop.
func (g *Group[K, S, D, Q]) work(sh *shard[K, S, D, Q]) {
	for {
		select {
		case <-g.quit:
			for {
				select {
				case d := <-sh.ch:
					g.hooks.Done(d, Tally{})
				default:
					return
				}
			}
		case d := <-sh.ch:
			g.deliver(sh, d)
		}
	}
}

// deliver fans d out to one shard's members.
func (g *Group[K, S, D, Q]) deliver(sh *shard[K, S, D, Q], d D) {
	var t Tally
	var evicted []*Member[K, S, Q]
	sh.mu.Lock()
	for i := 0; i < len(sh.members); i++ {
		m := sh.members[i]
		q, ok := g.hooks.Admit(m, d)
		if !ok {
			t.Skipped++
			continue
		}
		t.Admitted++
		if !m.Push(q) {
			continue
		}
		t.Dropped++
		if m.drops++; m.drops >= g.hopeless {
			// Hopeless consumer: take it out of the shard here, so no later
			// descriptor can evict it again.
			sh.removeAt(i)
			i--
			evicted = append(evicted, m)
		}
	}
	sh.mu.Unlock()
	for _, m := range evicted {
		m.stop()
		g.forget(m)
		m.Key.Close()
		g.hooks.Evicted(m.Key)
	}
	g.hooks.Done(d, t)
}

// write drains the member's queue onto its connection until the member is
// detached (a plain receive: the queue's close is the stop signal, so the
// per-item cost is one channel operation, not a two-way select).
func (g *Group[K, S, D, Q]) write(m *Member[K, S, Q]) {
	for q := range m.ch {
		if g.hooks.Send(m.Key, q) != nil {
			m.Key.Close()
			// Still attached: what piles up behind the failed connection
			// is discarded when its owner removes the member.
			m.drain()
			return
		}
	}
}

// QueueDepth reports what is queued right now: items across all member queues,
// and descriptors the shard workers have yet to pick up (one that a worker
// is delivering at this moment is in neither).
func (g *Group[K, S, D, Q]) QueueDepth() (items, descriptors int) {
	for _, sh := range g.shards {
		descriptors += len(sh.ch)
		sh.mu.Lock()
		for _, m := range sh.members {
			items += len(m.ch)
		}
		sh.mu.Unlock()
	}
	return items, descriptors
}

// Stop refuses further attaches, detaches every member (stopping its
// writer and discarding its queue), stops the workers, and returns the
// keys it detached so the caller can disconnect them. Idempotent.
func (g *Group[K, S, D, Q]) Stop() []K {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return nil
	}
	g.stopped = true
	clear(g.byKey)
	g.mu.Unlock()
	var keys []K
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.stopped = true
		members := sh.members
		sh.members = nil
		sh.n.Store(0)
		sh.mu.Unlock()
		for _, m := range members {
			m.stop()
			keys = append(keys, m.Key)
		}
	}
	close(g.quit)
	return keys
}
