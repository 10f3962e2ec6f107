// Package fanout is the one push-delivery machine of the testbed: the
// RTMP media hub (service) and the WebSocket chat room (chat) both fan a
// message out to their attached connections through a Group.
//
// A publisher appends one descriptor to each of K shards' FIFOs, so its
// inline cost is O(shards), not O(members). A shard worker pops one, walks
// the shard's members under the shard lock, puts each admitted idle
// member's item straight into its batch and sends the batch with no lock
// held; a member whose previous item is still in flight queues the new one
// on its bounded ring instead. Walks are serialised and in FIFO order, so
// each member gets one Send at a time, in order, and a message wakes
// O(workers) goroutines, not O(members). Entries are claimed with one
// fetch-add on the batch cursor, which is also the watchdog's progress
// signal: when work waits and nothing was claimed for stallAfter, the shard
// adds a worker that takes over the stuck batch — a stalled socket holds
// one worker, never its shard-mates. A full ring drops its oldest item, and
// a member penalised that way too often is evicted, exactly once. Members
// live in slabs their shard owns, so no cache line holds members of two
// shards: one shard's workers never write a line another's are walking.
// What differs between the planes is supplied as Hooks bound at
// construction.
package fanout

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
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
	// Send writes one item to the member's connection from a shard worker
	// and consumes the item; at most one Send runs for a member at a time,
	// in queue order. An error closes the connection and retires the
	// member's queue; the owner's read side then notices and Removes it.
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
// member's key: identity, and a Close that unblocks a worker stuck in Send.
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
// per-member state. Everything below Key and State is guarded by the shard
// lock.
type Member[K Conn, S, Q any] struct {
	Key K
	// State is caller-owned; only Admit touches it after Attach, and Admit
	// calls for one member are serialised by its shard lock.
	State S

	shard, drops int
	discard      func(Q)
	ring         []Q // fixed; the queue is the n items from ring[head] on (mod len)
	head, n      int
	// owned is set while one of the member's items sits in a batch or is
	// being sent: that is what keeps its Sends single-threaded and in order
	// without a goroutine each. A member whose Send failed stays owned, but
	// dead: its batch lets go of it at the failure, so no batch holds it.
	owned, dead bool
	// gone marks a member that left its shard while a batch held it: the
	// batch's return clears the slot (see leave).
	gone bool
}

// Drops reports how many drop-oldest penalties the member has taken. Like
// State it belongs to the delivery walk: only Admit may call it.
func (m *Member[K, S, Q]) Drops() int { return m.drops }

// Push offers q to the member's queue without ever blocking. When the
// queue is full exactly the oldest entry is discarded to make room, and
// Push reports true. Outside the core only Admit may call it (the shard
// lock serialises producers); it does not count a penalty.
func (m *Member[K, S, Q]) Push(q Q) (dropped bool) {
	if dropped = m.n == len(m.ring); dropped {
		m.discard(m.pop())
	}
	m.ring[(m.head+m.n)%len(m.ring)] = q
	m.n++
	return dropped
}

// pop takes the oldest item off a non-empty queue.
func (m *Member[K, S, Q]) pop() Q {
	var zero Q
	q := m.ring[m.head]
	m.ring[m.head] = zero
	m.head = (m.head + 1) % len(m.ring)
	m.n--
	return q
}

// leave is the last step of a member's departure, under the shard lock
// once it is out of the member list and purged. A departed member's slot is
// never reused, but its slab lives as long as any slab-mate, so the slot
// must not keep the connection, state or ring of a member that has gone: it
// is cleared now when no batch holds it, and otherwise marked for the
// batch's return to clear.
func (m *Member[K, S, Q]) leave() {
	if m.owned && !m.dead {
		m.gone = true
	} else {
		*m = Member[K, S, Q]{}
	}
}

// purge discards everything queued right now. Whoever took the member out
// of its shard calls it, under the shard lock: every Push runs there on a
// listed member, so nothing is queued afterwards. An item already in a
// batch is sent, not discarded — each goes to exactly one of the two.
func (m *Member[K, S, Q]) purge() {
	for m.n > 0 {
		m.discard(m.pop())
	}
}

const (
	// idleWorkers is how many workers a shard keeps parked. One: a shard is
	// one core's worth of delivery, and a second would only split its batch.
	idleWorkers = 1
	// stallAfter is how long work may wait with no batch entry claimed
	// before the shard adds a worker. Far above a healthy socket write
	// (microseconds), far below a media frame interval (33 ms).
	stallAfter = time.Millisecond
	// slabChunk is how many members a shard's slab carves at a time. A
	// chunk is 64 × the member size, a multiple of 512 bytes, and the
	// allocator's size classes from 512 bytes up are multiples of 64, so a
	// chunk starts and ends on a cache-line boundary: consecutive members
	// of one shard are contiguous, and no line holds two shards' members.
	slabChunk = 64
)

// entry is one item on its way to one member; m is nil once its Send
// failed.
type entry[K Conn, S, Q any] struct {
	m *Member[K, S, Q]
	q Q
}

// batch is what one worker sends between two visits to its shard's lock.
// Its owner claims entries in order with one fetch-add each; a worker that
// takes it over stops those claims with one swap and keeps the tail. The
// fields after cursor are guarded by the shard lock.
type batch[K Conn, S, Q any] struct {
	entries []entry[K, S, Q]
	cursor  atomic.Int64

	seen    int64 // cursor at the watchdog's last look
	stuck   bool  // the watchdog's last look saw no claim since the one before
	taken   bool  // a takeover stopped the claims
	settled int   // entries[:settled] were returned by a takeover
	end     int   // the owner returns entries[settled:end]
}

// shard owns a disjoint subset of the members, the FIFO of descriptors its
// workers have yet to walk and the batches they are sending. Its member
// list is the single arbiter between Remove, hopeless eviction and Stop:
// whoever takes a member out of it (under mu) purges that member's queue,
// nobody else does.
type shard[K Conn, S, D, Q any] struct {
	// n mirrors len(members) so Publish can skip an empty shard without
	// taking mu: most simulated broadcasts have 0-1 viewers, and an idle
	// group must not pay K Shares and worker wakeups per message. A member
	// attaching in the skip window only misses a message it raced anyway.
	n atomic.Int32

	mu      sync.Mutex
	members []*Member[K, S, Q]
	stopped bool
	// slab is what is left of the chunk the shard's next members are
	// carved from. Attach carves under Group.mu, not mu.
	slab []Member[K, S, Q]

	descs     []D // fixed; the FIFO is the dn descriptors from descs[dhead] on
	dhead, dn int
	space     sync.Cond          // publishers wait here while the FIFO is full
	flight    []*batch[K, S, Q]  // batches whose owner is sending them
	free      []*batch[K, S, Q]  // exited workers' batches, kept grown for the next
	joined    []*Member[K, S, Q] // attached with first items no batch has taken yet

	wake            sync.Cond   // parked workers wait here
	workers, parked int         // running (parked or not), and parked
	pops, seen      uint64      // descriptors walked, and at the watchdog's last look
	timer           *time.Timer // the watchdog; armed only while work waits
	armed           bool
}

// removeAt swap-deletes members[i]; the caller holds mu.
func (sh *shard[K, S, D, Q]) removeAt(i int) {
	last := len(sh.members) - 1
	sh.members[i] = sh.members[last]
	sh.members[last] = nil
	sh.members = sh.members[:last]
	sh.n.Store(int32(last))
}

// stage gives an owned member's oldest queued item to b, or returns it to
// idle when nothing is queued; a member that left its shard meanwhile is
// cleared instead, and a nil one (its Send failed) was let go already. The
// caller holds mu.
func stage[K Conn, S, Q any](b *batch[K, S, Q], m *Member[K, S, Q]) {
	switch {
	case m == nil:
	case m.n > 0:
		b.entries = append(b.entries, entry[K, S, Q]{m, m.pop()})
	case m.gone:
		*m = Member[K, S, Q]{}
	default:
		m.owned = false
	}
}

// Group fans descriptors of type D out to members keyed by K, each with
// caller state S and a queue of items Q.
type Group[K Conn, S, D, Q any] struct {
	hooks       Hooks[K, S, D, Q]
	shards      []*shard[K, S, D, Q]
	memberDepth int
	hopeless    int

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

// New builds a Group and starts one worker per shard. shardDepth bounds
// each shard's descriptor FIFO (it only absorbs scheduling jitter; a
// publisher that outruns it waits on the workers, never on a member
// socket). memberDepth bounds each member's queue, and hopeless is the
// number of penalties after which a member is evicted.
func New[K Conn, S, D, Q any](shards, shardDepth, memberDepth, hopeless int, hooks Hooks[K, S, D, Q]) *Group[K, S, D, Q] {
	g := &Group[K, S, D, Q]{
		hooks:       hooks,
		memberDepth: memberDepth,
		hopeless:    hopeless,
		byKey:       map[K]*Member[K, S, Q]{},
	}
	for i := 0; i < max(1, shards); i++ {
		sh := &shard[K, S, D, Q]{descs: make([]D, max(1, shardDepth))}
		sh.space.L, sh.wake.L = &sh.mu, &sh.mu
		sh.timer = time.AfterFunc(stallAfter, func() { g.watch(sh) })
		sh.timer.Stop()
		g.shards = append(g.shards, sh)
		g.spawn(sh)
	}
	return g
}

// spawn starts a worker with two batches; every worker is started here.
// The caller holds sh.mu, or no other goroutine knows sh yet.
func (g *Group[K, S, D, Q]) spawn(sh *shard[K, S, D, Q]) {
	sh.workers++
	for len(sh.free) < 2 {
		sh.free = append(sh.free, &batch[K, S, Q]{entries: make([]entry[K, S, Q], 0, len(sh.members))})
	}
	n := len(sh.free)
	go g.work(sh, sh.free[n-2], sh.free[n-1])
	sh.free = sh.free[:n-2]
}

// kick arms the watchdog unless it is running and, for new work, wakes a
// parked worker. The caller holds mu.
func (sh *shard[K, S, D, Q]) kick(wake bool) {
	if wake && sh.parked > 0 {
		sh.wake.Signal()
	}
	if !sh.armed {
		sh.armed = true
		sh.timer.Reset(stallAfter)
	}
}

// watch is the isolation rule. It runs every stallAfter while unclaimed
// batch entries or descriptors wait. A batch whose cursor has not moved
// since the last look is stuck and will be taken over by the next worker
// to visit the lock; if nothing at all moved, every worker is held by a
// socket, so it wakes a parked worker or starts one. A newly stalled socket
// therefore delays its shard-mates by at most ~2×stallAfter, once, and
// holds one goroutine for as long as it blocks.
func (g *Group[K, S, D, Q]) watch(sh *shard[K, S, D, Q]) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	progress, waiting := sh.pops != sh.seen, sh.dn > 0 || len(sh.joined) > 0
	sh.seen = sh.pops
	for _, b := range sh.flight {
		c := b.cursor.Load()
		waiting = waiting || c < int64(len(b.entries))
		b.stuck, b.seen = c == b.seen, c
		progress = progress || !b.stuck
	}
	if sh.stopped || !waiting {
		sh.armed = false
		return
	}
	if !progress {
		if sh.parked > 0 {
			sh.wake.Signal()
		} else {
			g.spawn(sh)
		}
	}
	sh.timer.Reset(stallAfter)
}

// Attach registers a member on the next shard round-robin, in the next
// slot of that shard's slab, and queues first ahead of anything a delivery
// can offer it. It starts no goroutine of the member's own: first reaches
// the connection through the shard's workers. Once the Group has stopped it
// reports false instead, with first discarded: the handoff of first is
// unconditional.
func (g *Group[K, S, D, Q]) Attach(key K, state S, first ...Q) bool {
	ring := make([]Q, g.memberDepth)
	g.mu.Lock()
	i := g.next % len(g.shards)
	g.next++
	sh := g.shards[i]
	if len(sh.slab) == 0 {
		sh.slab = make([]Member[K, S, Q], slabChunk)
	}
	m := &sh.slab[0]
	sh.slab = sh.slab[1:]
	*m = Member[K, S, Q]{Key: key, State: state, shard: i, discard: g.hooks.Discard, ring: ring}
	g.byKey[key] = m
	g.mu.Unlock()

	sh.mu.Lock()
	if sh.stopped {
		// Nothing would ever stop a member attached now, so undo the
		// registration instead. The shard's flag is the one check that
		// cannot race Stop: it is set under the lock that lists members.
		sh.mu.Unlock()
		g.forget(m)
		*m = Member[K, S, Q]{}
		for _, q := range first {
			g.hooks.Discard(q)
		}
		return false
	}
	for _, q := range first {
		m.Push(q)
	}
	if m.owned = len(first) > 0; m.owned {
		sh.joined = append(sh.joined, m)
		sh.kick(true)
	}
	sh.members = append(sh.members, m)
	sh.n.Store(int32(len(sh.members)))
	sh.mu.Unlock()
	return true
}

// Remove detaches key's member, reporting whether this call was the one
// that detached it (false when it was never attached, already evicted, or
// the Group stopped). The member's shard is read under g.mu: an eviction
// clears the slot only after its forget, which takes g.mu too.
func (g *Group[K, S, D, Q]) Remove(key K) bool {
	g.mu.Lock()
	m := g.byKey[key]
	delete(g.byKey, key)
	var sh *shard[K, S, D, Q]
	if m != nil {
		sh = g.shards[m.shard]
	}
	g.mu.Unlock()
	if m == nil {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := slices.Index(sh.members, m)
	if i >= 0 {
		sh.removeAt(i)
		m.purge()
		m.leave()
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

// Publish appends d to the FIFO of every shard that has members, waiting
// while one is full.
func (g *Group[K, S, D, Q]) Publish(d D) {
	for _, sh := range g.shards {
		if sh.n.Load() == 0 {
			continue
		}
		g.hooks.Share(d)
		sh.mu.Lock()
		for sh.dn == len(sh.descs) && !sh.stopped {
			sh.space.Wait()
		}
		if sh.stopped {
			sh.mu.Unlock()
			g.hooks.Done(d, Tally{})
			continue
		}
		sh.descs[(sh.dhead+sh.dn)%len(sh.descs)] = d
		sh.dn++
		sh.kick(true)
		sh.mu.Unlock()
	}
}

// work is one worker: a turn at the shard lock, then the batch it built.
// Its two batches alternate: one is returned while the other is built.
func (g *Group[K, S, D, Q]) work(sh *shard[K, S, D, Q], sent, next *batch[K, S, Q]) {
	for g.turn(sh, sent, next) {
		g.send(sh, next)
		sent, next = next, sent
	}
}

// send claims b's entries in order and sends each, until the end of the
// batch or a takeover.
func (g *Group[K, S, D, Q]) send(sh *shard[K, S, D, Q], b *batch[K, S, Q]) {
	n := int64(len(b.entries))
	for i := b.cursor.Add(1) - 1; i < n; i = b.cursor.Add(1) - 1 {
		e := &b.entries[i]
		if g.hooks.Send(e.m.Key, e.q) != nil {
			m := e.m
			m.Key.Close()
			// The member stays owned, so no worker sends to it again: what
			// piles up behind the failed connection is discarded here and
			// when its owner removes it. The batch lets go of it now, so
			// the one that has left already is cleared here.
			sh.mu.Lock()
			m.dead = true
			m.purge()
			e.m = nil
			if m.gone {
				*m = Member[K, S, Q]{}
			}
			sh.mu.Unlock()
		}
	}
}

// turn is one visit to the shard lock: it returns the members of the batch
// b just sent (those with a backlog go into nb, the next one), takes over
// stuck batches and walks one descriptor into nb, then closes what the walk
// evicted and reports the descriptor done. It reports false when the worker
// should exit: the shard has stopped, or it has no work and a worker is
// parked.
func (g *Group[K, S, D, Q]) turn(sh *shard[K, S, D, Q], b, nb *batch[K, S, Q]) bool {
	sh.mu.Lock()
	sh.flight = slices.DeleteFunc(sh.flight, func(f *batch[K, S, Q]) bool { return f == b })
	for _, e := range b.entries[b.settled:b.end] {
		stage(nb, e.m)
	}
	clear(b.entries)
	b.entries, b.settled, b.end = b.entries[:0], 0, 0
	var d D
	var t Tally
	var evicted []*Member[K, S, Q]
	walked := false
	for !sh.stopped {
		for _, c := range sh.flight {
			if c.stuck && !c.taken {
				takeover(c, nb)
			}
		}
		for _, m := range sh.joined {
			stage(nb, m)
		}
		sh.joined = nil
		if walked = sh.dn > 0; walked {
			var zero D
			d, sh.descs[sh.dhead] = sh.descs[sh.dhead], zero
			sh.dhead, sh.dn = (sh.dhead+1)%len(sh.descs), sh.dn-1
			sh.pops++
			sh.space.Signal()
			t, evicted = g.walk(sh, nb, d)
		}
		if walked || len(nb.entries) > 0 || sh.parked >= idleWorkers {
			break
		}
		sh.parked++
		sh.wake.Wait()
		sh.parked--
	}
	ok := walked || len(nb.entries) > 0
	if len(nb.entries) > 0 {
		nb.cursor.Store(0)
		nb.seen, nb.stuck, nb.taken, nb.end = -1, false, false, len(nb.entries)
		sh.flight = append(sh.flight, nb)
		sh.kick(false)
	} else if !ok {
		sh.workers--
		sh.free = append(sh.free, b, nb)
	}
	sh.mu.Unlock()
	for _, m := range evicted {
		g.forget(m)
		m.Key.Close()
		g.hooks.Evicted(m.Key)
		sh.mu.Lock()
		m.leave()
		sh.mu.Unlock()
	}
	if walked {
		g.hooks.Done(d, t)
	}
	return ok
}

// takeover stops the claims on a stuck batch c: its owner keeps the entry
// it is sending, the members of the entries it has already sent go back
// (or into nb, when they have a backlog), and the unclaimed tail moves to
// nb. The caller holds the shard lock.
func takeover[K Conn, S, Q any](c, nb *batch[K, S, Q]) {
	n := int64(len(c.entries))
	s := c.cursor.Swap(n)
	c.taken, c.end = true, int(min(s, n))
	// The owner claims in order and only after its previous Send returned,
	// so every entry before its last claim is sent; past the end, all are.
	if c.settled = c.end; s <= n {
		c.settled = max(0, c.end-1)
	}
	for _, e := range c.entries[:c.settled] {
		stage(nb, e.m)
	}
	nb.entries = append(nb.entries, c.entries[c.end:]...)
}

// walk offers d to the shard's members: straight into b for an idle member,
// onto its queue for one whose previous item is still in b or in flight.
// The caller holds the shard lock; hopeless members are taken out of the
// shard here and returned for the caller to close. Their slots are cleared
// only after that (leave), as closing them reads Key with no lock held.
func (g *Group[K, S, D, Q]) walk(sh *shard[K, S, D, Q], b *batch[K, S, Q], d D) (t Tally, evicted []*Member[K, S, Q]) {
	for i := 0; i < len(sh.members); i++ {
		m := sh.members[i]
		q, ok := g.hooks.Admit(m, d)
		if !ok {
			t.Skipped++
			continue
		}
		t.Admitted++
		if !m.owned && m.n == 0 {
			m.owned = true
			b.entries = append(b.entries, entry[K, S, Q]{m, q})
			continue
		}
		if m.Push(q) {
			t.Dropped++
			if m.drops++; m.drops >= g.hopeless {
				// Hopeless consumer: take it out of the shard here, so no later
				// descriptor can evict it again.
				sh.removeAt(i)
				i--
				m.purge()
				evicted = append(evicted, m)
			}
		}
		if !m.owned {
			// Attach or Admit queued items ahead of q.
			m.owned = true
			stage(b, m)
		}
	}
	return t, evicted
}

// QueueDepth reports what is queued right now: items across all member
// queues and unclaimed batch entries, and descriptors the shard workers
// have yet to walk.
func (g *Group[K, S, D, Q]) QueueDepth() (items, descriptors int) {
	for _, sh := range g.shards {
		sh.mu.Lock()
		descriptors += sh.dn
		for _, m := range sh.members {
			items += m.n
		}
		for _, b := range sh.flight {
			items += max(0, len(b.entries)-int(b.cursor.Load()))
		}
		sh.mu.Unlock()
	}
	return items, descriptors
}

// Stop refuses further attaches, detaches every member (discarding its
// queue; what is already in a batch is sent), stops the workers and the
// watchdogs, and returns the keys it detached so the caller can disconnect
// them. Idempotent.
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
	var undelivered []D
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.stopped = true
		for _, m := range sh.members {
			m.purge()
			keys = append(keys, m.Key)
			m.leave()
		}
		sh.members = nil
		sh.n.Store(0)
		for ; sh.dn > 0; sh.dn-- {
			undelivered = append(undelivered, sh.descs[sh.dhead])
			sh.dhead = (sh.dhead + 1) % len(sh.descs)
		}
		clear(sh.descs)
		sh.timer.Stop()
		sh.wake.Broadcast()
		sh.space.Broadcast()
		sh.mu.Unlock()
	}
	for _, d := range undelivered {
		g.hooks.Done(d, Tally{})
	}
	return keys
}
