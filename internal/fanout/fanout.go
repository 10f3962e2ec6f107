// Package fanout is the one push-delivery machine of the testbed: the
// RTMP media hub (service) and the WebSocket chat room (chat) both fan a
// message out to their attached connections through a Group.
//
// A publisher hands one descriptor to each of K shard workers, so its
// inline cost is O(shards), not O(members). Each worker walks its disjoint
// subset of members and offers every admitted member a queue item on a
// bounded ring. A member with something to send waits on its shard's ready
// queue for one of a small elastic pool of writers, so a message wakes
// O(writers) goroutines, not O(members), and goroutines do not scale with
// the audience. When members wait and no writer has come back for one
// within stallAfter, the shard adds a writer: a slow or stalled socket
// holds one writer, never its shard-mates. A full ring drops its oldest
// item (drop-oldest never blocks), and a member penalised that way too
// often is hopeless — evicted exactly once. What differs between the
// planes (which members see a message, what a queue slot holds, how it is
// written and released) is supplied as Hooks bound at construction; nothing
// here knows which plane it serves.
package fanout

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Hooks are the plane-specific halves of delivery. All six are required.
// Admit and Discard can run under a shard lock (Discard under a member's
// too) and must not block or call back into the Group; the others run with
// no lock held.
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
	// Send writes one item to the member's connection from a shard writer
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

// A member is owned by at most one party at a time, which is what keeps
// Send single-threaded and in order per member without a goroutine each.
const (
	idle    uint8 = iota // nothing queued, on no chain
	ready                // items queued, chained for a writer
	sending              // a writer is draining it; new items need no wakeup
)

// Member is one attached connection: its bounded queue plus the caller's
// per-member state.
type Member[K Conn, S, Q any] struct {
	Key K
	// State is caller-owned; only Admit touches it after Attach, and Admit
	// calls for one member are serialised by its shard lock.
	State S

	shard int
	drops int // guarded by the shard lock
	pool  *pool[K, S, Q]
	// next links the member into the one chain it is on while ready; it
	// belongs to whoever holds that chain's lock.
	next *Member[K, S, Q]

	// mu is where the delivery walk and the writer meet, so a counted drop
	// discards exactly one item. It is a leaf: nothing is acquired under it.
	mu    sync.Mutex
	ring  []Q // fixed; the queue is the n items from ring[head] on (mod len)
	head  int
	n     int
	state uint8
}

// Drops reports how many drop-oldest penalties the member has taken. Like
// State it belongs to the delivery walk: only Admit may call it.
func (m *Member[K, S, Q]) Drops() int { return m.drops }

// Push offers q to the member's queue without ever blocking. When the
// queue is full exactly the oldest entry is discarded to make room, and
// Push reports true. Outside the core only Admit may call it (the shard
// lock serialises producers); it does not count a penalty.
func (m *Member[K, S, Q]) Push(q Q) (dropped bool) {
	m.mu.Lock()
	if dropped = m.n == len(m.ring); dropped {
		m.pool.discard(m.pop())
	}
	i := m.head + m.n
	if i >= len(m.ring) {
		i -= len(m.ring)
	}
	m.ring[i] = q
	m.n++
	wake := m.state == idle
	if wake {
		m.state = ready
	}
	m.mu.Unlock()
	if wake {
		m.pool.woken.push(m)
	}
	return dropped
}

// pop takes the oldest item off a non-empty queue; the caller holds mu.
func (m *Member[K, S, Q]) pop() Q {
	var zero Q
	q := m.ring[m.head]
	m.ring[m.head] = zero
	if m.head++; m.head == len(m.ring) {
		m.head = 0
	}
	m.n--
	return q
}

// purge discards everything queued right now. Whoever took the member out
// of its shard calls it: every Push runs under the shard lock on a listed
// member, so nothing is queued afterwards. An item a writer has already
// popped is sent, not discarded — each goes to exactly one of the two.
func (m *Member[K, S, Q]) purge() {
	m.mu.Lock()
	for m.n > 0 {
		m.pool.discard(m.pop())
	}
	m.mu.Unlock()
}

// chain is an intrusive FIFO of ready members: appending one walk's worth
// of members to the ready queue is O(1) and allocates nothing, however
// large the shard.
type chain[K Conn, S, Q any] struct{ head, tail *Member[K, S, Q] }

func (c *chain[K, S, Q]) push(m *Member[K, S, Q]) {
	if c.tail == nil {
		c.head = m
	} else {
		c.tail.next = m
	}
	c.tail = m
}

func (c *chain[K, S, Q]) pop() *Member[K, S, Q] {
	m := c.head
	if m == nil {
		return nil
	}
	if c.head = m.next; c.head == nil {
		c.tail = nil
	}
	m.next = nil
	return m
}

// take moves everything on o to the end of c.
func (c *chain[K, S, Q]) take(o *chain[K, S, Q]) {
	if o.head == nil {
		return
	}
	if c.tail == nil {
		c.head = o.head
	} else {
		c.tail.next = o.head
	}
	c.tail = o.tail
	*o = chain[K, S, Q]{}
}

const (
	// idleWriters is how many writers a shard keeps parked. One: a shard is
	// one core's worth of delivery, and a second would only split its batch.
	idleWriters = 1
	// stallAfter is how long members may wait with no writer coming back
	// for one before the shard adds a writer. Far above a healthy socket
	// write (microseconds), far below a media frame interval (33 ms).
	stallAfter = time.Millisecond
)

// pool is the sending half of a shard: the queue of members with something
// to send and the writers that drain them. It starts no goroutine and no
// timer until a member is first ready.
type pool[K Conn, S, Q any] struct {
	send    func(K, Q) error
	discard func(Q)

	// woken collects the members one delivery walk (or Attach) turned from
	// idle to ready, so they reach the ready queue under one lock and wake
	// a writer once per descriptor. Guarded by the shard lock.
	woken chain[K, S, Q]

	mu      sync.Mutex // the ready-queue lock; a leaf under the shard lock
	wake    sync.Cond  // parked writers wait here
	ready   chain[K, S, Q]
	writers int // running, parked or not
	parked  int
	stopped bool
	// turns counts members handed to writers. The watchdog reads it as
	// progress: a writer stuck in Send, or busy with one deep queue, takes
	// no turn, and then its shard-mates must not wait for it.
	turns uint64
	seen  uint64      // turns at the watchdog's last look
	timer *time.Timer // the watchdog; armed only while members wait
	armed bool
}

// flush moves the woken members to the ready queue and makes sure a writer
// will come for them. The caller holds the shard lock.
func (p *pool[K, S, Q]) flush() {
	if p.woken.head == nil {
		return
	}
	p.mu.Lock()
	p.ready.take(&p.woken)
	switch {
	case p.parked > 0:
		p.wake.Signal()
	case p.writers == 0:
		p.writers++
		go p.write()
	}
	if !p.armed {
		p.armed = true
		p.seen = p.turns
		if p.timer == nil {
			p.timer = time.AfterFunc(stallAfter, p.watch)
		} else {
			p.timer.Reset(stallAfter)
		}
	}
	p.mu.Unlock()
}

// watch is the isolation rule. It runs stallAfter after members started
// waiting and again while they still are: if no writer has taken a turn
// since its last look, every writer is held by a socket, so it adds one.
// A newly stalled socket therefore delays its shard-mates by at most
// ~2×stallAfter, once, and holds one goroutine for as long as it blocks.
func (p *pool[K, S, Q]) watch() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped || p.ready.head == nil {
		p.armed = false
		return
	}
	// A parked writer here has been signalled and is on its way.
	if p.turns == p.seen && p.parked == 0 {
		p.writers++
		go p.write()
	}
	p.seen = p.turns
	p.timer.Reset(stallAfter)
}

// write is one writer: it takes a ready member, owns it until its queue is
// empty, and comes back for the next.
func (p *pool[K, S, Q]) write() {
	for m := p.next(); m != nil; m = p.next() {
		p.drain(m)
	}
}

// next parks until a member is ready and returns it, or returns nil when
// the writer should exit: the pool has stopped, or the queue is empty and
// enough writers are parked already (the pool grew past a stall that has
// since cleared).
func (p *pool[K, S, Q]) next() *Member[K, S, Q] {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.stopped {
		if m := p.ready.pop(); m != nil {
			p.turns++
			return m
		}
		if p.parked >= idleWriters {
			break
		}
		p.parked++
		p.wake.Wait()
		p.parked--
	}
	p.writers--
	return nil
}

// drain sends m's queue in order until it is empty.
func (p *pool[K, S, Q]) drain(m *Member[K, S, Q]) {
	m.mu.Lock()
	m.state = sending
	for m.n > 0 {
		q := m.pop()
		m.mu.Unlock()
		if p.send(m.Key, q) != nil {
			m.Key.Close()
			// The member stays attached and stays in the sending state, so
			// no writer takes it again: what piles up behind the failed
			// connection is discarded here and when its owner removes it.
			m.purge()
			return
		}
		m.mu.Lock()
	}
	m.state = idle
	m.mu.Unlock()
}

// stop ends the writers (one stuck in Send exits when its connection is
// closed) and the watchdog.
func (p *pool[K, S, Q]) stop() {
	p.mu.Lock()
	p.stopped = true
	p.ready = chain[K, S, Q]{}
	if p.timer != nil {
		p.timer.Stop()
	}
	p.mu.Unlock()
	p.wake.Broadcast()
}

// shard owns a disjoint subset of the members and the queue of descriptors
// its worker has yet to deliver. Its member list is the single arbiter
// between Remove, hopeless eviction and Stop: whoever takes a member out of
// it (under mu) purges that member's queue, nobody else does.
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

	pool pool[K, S, Q]
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
		sh.pool.send, sh.pool.discard = hooks.Send, hooks.Discard
		sh.pool.wake.L = &sh.pool.mu
		g.shards = append(g.shards, sh)
		go g.work(sh)
	}
	return g
}

// Attach registers a member on the next shard round-robin and queues first
// ahead of anything a delivery can offer it. It starts no goroutine of the
// member's own: first reaches the connection through the shard's writers.
// Once the Group has stopped it reports false instead, with first
// discarded: the handoff of first is unconditional.
func (g *Group[K, S, D, Q]) Attach(key K, state S, first ...Q) bool {
	m := &Member[K, S, Q]{Key: key, State: state, ring: make([]Q, g.memberDepth)}
	g.mu.Lock()
	m.shard = g.next % len(g.shards)
	g.next++
	g.byKey[key] = m
	g.mu.Unlock()

	sh := g.shards[m.shard]
	m.pool = &sh.pool
	sh.mu.Lock()
	if sh.stopped {
		// Nothing would ever stop a member attached now, so undo the
		// registration instead. The shard's flag is the one check that
		// cannot race Stop: it is set under the lock that lists members.
		sh.mu.Unlock()
		g.forget(m)
		for _, q := range first {
			g.hooks.Discard(q)
		}
		return false
	}
	for _, q := range first {
		m.Push(q)
	}
	sh.pool.flush()
	sh.members = append(sh.members, m)
	sh.n.Store(int32(len(sh.members)))
	sh.mu.Unlock()
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
		m.purge()
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
	sh.pool.flush()
	sh.mu.Unlock()
	for _, m := range evicted {
		m.purge()
		g.forget(m)
		m.Key.Close()
		g.hooks.Evicted(m.Key)
	}
	g.hooks.Done(d, t)
}

// QueueDepth reports what is queued right now: items across all member queues,
// and descriptors the shard workers have yet to pick up (one that a worker
// is delivering at this moment is in neither).
func (g *Group[K, S, D, Q]) QueueDepth() (items, descriptors int) {
	for _, sh := range g.shards {
		descriptors += len(sh.ch)
		sh.mu.Lock()
		for _, m := range sh.members {
			m.mu.Lock()
			items += m.n
			m.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return items, descriptors
}

// Stop refuses further attaches, detaches every member (discarding its
// queue), stops the workers, the writers and the watchdogs, and returns the
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
			m.purge()
			keys = append(keys, m.Key)
		}
		sh.pool.stop()
	}
	close(g.quit)
	return keys
}
