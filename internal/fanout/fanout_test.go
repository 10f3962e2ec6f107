package fanout

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"periscope/internal/leakcheck"
)

// TestMain enforces that every shard worker a test
// started has exited by the end of the binary: Stop, Remove and eviction
// must each leave no goroutine behind.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

// item is a counting queue item: the ledger checks that each one ends up
// sent or discarded exactly once.
type item struct {
	desc int
	// seq is the item's place in its member's queue order: 0 for one handed
	// to Attach, then 1, 2, … in the order Admit built them.
	seq       int64
	sent      atomic.Int32
	discarded atomic.Int32
}

// conn is a member key. A stalled conn blocks in Send until released, like
// a socket whose TCP window has collapsed.
type conn struct {
	stall   chan struct{} // nil: writes complete at once
	entered chan struct{} // signalled when a stalled Send begins
	sent    atomic.Int32
	closes  atomic.Int32
	// inSend and next police the core's ownership rule on every
	// test: one Send at a time per member, in queue order (drops leave gaps).
	inSend atomic.Int32
	next   atomic.Int64 // lowest seq the next Send may carry
}

// Close is what the core calls on a failed Send or an eviction.
func (c *conn) Close() error {
	c.closes.Add(1)
	return nil
}

func stalledConn() *conn {
	return &conn{stall: make(chan struct{}), entered: make(chan struct{}, 1)}
}

// desc is a counting descriptor; only, when set, restricts it to one member.
type desc struct {
	id   int
	only *conn
}

// rig is a Group over counting hooks.
type rig struct {
	*Group[*conn, int, desc, *item]

	// send is what the Send hook runs; a test replaces it before attaching
	// the members it is for.
	send func(*conn, *item) error

	mu      sync.Mutex
	items   []*item
	tally   Tally
	shares  atomic.Int32
	dones   atomic.Int32
	evicted atomic.Int32
	// misorder counts Sends that overlapped another Send for the same
	// member or ran out of queue order.
	misorder atomic.Int32
}

func newRig(shards, memberDepth, hopeless int) *rig {
	r := &rig{}
	r.send = r.stallableSend
	r.Group = New(shards, 16, memberDepth, hopeless, Hooks[*conn, int, desc, *item]{
		Share: func(desc) { r.shares.Add(1) },
		Done: func(_ desc, t Tally) {
			r.dones.Add(1)
			r.mu.Lock()
			r.tally.Admitted += t.Admitted
			r.tally.Skipped += t.Skipped
			r.tally.Dropped += t.Dropped
			r.mu.Unlock()
		},
		Admit: func(m *Member[*conn, int, *item], d desc) (*item, bool) {
			if d.only != nil && d.only != m.Key {
				return nil, false
			}
			it := r.newItem(d.id)
			m.State++
			it.seq = int64(m.State)
			return it, true
		},
		Send:    func(c *conn, it *item) error { return r.send(c, it) },
		Discard: func(it *item) { it.discarded.Add(1) },
		Evicted: func(*conn) { r.evicted.Add(1) },
	})
	return r
}

// stallableSend counts the item as sent, after waiting for a stalled conn
// to be released.
func (r *rig) stallableSend(c *conn, it *item) error {
	if c.inSend.Add(1) != 1 || c.next.Swap(it.seq+1) > it.seq {
		r.misorder.Add(1)
	}
	defer c.inSend.Add(-1)
	if c.stall != nil {
		select {
		case c.entered <- struct{}{}:
		default:
		}
		<-c.stall
	}
	it.sent.Add(1)
	c.sent.Add(1)
	return nil
}

func (r *rig) newItem(desc int) *item {
	it := &item{desc: desc}
	r.mu.Lock()
	r.items = append(r.items, it)
	r.mu.Unlock()
	return it
}

// deliver publishes d and returns once every shard it was shared with has
// walked it, so queue, drop and eviction counts are deterministic. It
// polls instead of failing a test, so it may run off the test goroutine.
func (r *rig) deliver(d desc) {
	r.Publish(d)
	for r.shares.Load() != r.dones.Load() {
		time.Sleep(10 * time.Microsecond)
	}
}

// deliverN delivers descriptors counting from `from` one at a time; with
// keepUp set, each delivery waits for that member to have been sent it, so
// only members that cannot keep up ever drop.
func (r *rig) deliverN(t *testing.T, from, n int, keepUp *conn) {
	t.Helper()
	for i := from; i < from+n; i++ {
		r.deliver(desc{id: i})
		if keepUp != nil {
			waitFor(t, "a healthy member's worker", func() bool { return int(keepUp.sent.Load()) == i+1 })
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// settle waits until every item created so far is accounted for and fails
// on any accounted twice; it returns the sent and discarded totals.
func (r *rig) settle(t *testing.T) (sent, discarded int) {
	t.Helper()
	r.mu.Lock()
	items := append([]*item(nil), r.items...)
	r.mu.Unlock()
	waitFor(t, "every item to be sent or discarded", func() bool {
		for _, it := range items {
			if it.sent.Load()+it.discarded.Load() == 0 {
				return false
			}
		}
		return true
	})
	for _, it := range items {
		s, d := int(it.sent.Load()), int(it.discarded.Load())
		if s+d != 1 {
			t.Errorf("item of descriptor %d: sent %d times, discarded %d times", it.desc, s, d)
		}
		sent += s
		discarded += d
	}
	if n := r.misorder.Load(); n != 0 {
		t.Errorf("%d Sends overlapped another Send to their member or ran out of queue order", n)
	}
	return sent, discarded
}

// TestPushDropOldest: a full queue never blocks the producer; it discards
// exactly the oldest queued items, in order, and keeps the newest.
func TestPushDropOldest(t *testing.T) {
	for _, tc := range []struct{ depth, pushes int }{
		{depth: 1, pushes: 1},
		{depth: 1, pushes: 5},
		{depth: 4, pushes: 4},
		{depth: 4, pushes: 11},
		{depth: 64, pushes: 200},
	} {
		var discarded []int
		m := &Member[*conn, struct{}, int]{
			ring:    make([]int, tc.depth),
			discard: func(q int) { discarded = append(discarded, q) },
		}
		for i := 0; i < tc.pushes; i++ {
			if got, want := m.Push(i), i >= tc.depth; got != want {
				t.Errorf("depth %d: Push #%d reported dropped=%v, want %v", tc.depth, i, got, want)
			}
		}
		over := max(0, tc.pushes-tc.depth)
		if len(discarded) != over {
			t.Fatalf("depth %d, %d pushes: %d discarded, want %d", tc.depth, tc.pushes, len(discarded), over)
		}
		for i, q := range discarded {
			if q != i {
				t.Errorf("depth %d: discard #%d was item %d, want the oldest (%d)", tc.depth, i, q, i)
			}
		}
		for want := over; want < tc.pushes; want++ {
			if got := m.pop(); got != want {
				t.Errorf("depth %d: queue holds %d where %d expected", tc.depth, got, want)
			}
		}
	}
}

// TestExactlyOnceAcrossDetach drives a stalled and a healthy member on one
// shard through each way a member can leave — Remove, hopeless eviction,
// Stop — and checks the ledger: every queued item is sent or discarded
// exactly once, the stalled member never delays its shard-mate, the tally
// matches what happened, and eviction closes the books exactly once.
func TestExactlyOnceAcrossDetach(t *testing.T) {
	const depth, hopeless = 4, 8
	for _, tc := range []struct {
		name      string
		overflow  int // deliveries after the stalled queue is full
		leave     func(t *testing.T, r *rig, stalled, healthy *conn)
		evictions int32
		members   int // attached after leave
	}{
		{name: "remove", overflow: 3, members: 1,
			leave: func(t *testing.T, r *rig, stalled, _ *conn) {
				if !r.Remove(stalled) {
					t.Error("Remove of an attached member reported false")
				}
				if r.Remove(stalled) {
					t.Error("second Remove reported true")
				}
			}},
		{name: "evict", overflow: hopeless + 5, evictions: 1, members: 1,
			leave: func(t *testing.T, r *rig, stalled, _ *conn) {
				if r.Remove(stalled) {
					t.Error("Remove after eviction reported true: the member left twice")
				}
			}},
		{name: "stop", overflow: 2, members: 0,
			leave: func(t *testing.T, r *rig, stalled, healthy *conn) {
				keys := r.Stop()
				if len(keys) != 2 {
					t.Errorf("Stop returned %d keys, want both members", len(keys))
				}
				if r.Stop() != nil {
					t.Error("second Stop detached members again")
				}
				if r.Attach(&conn{}, 0) {
					t.Error("Attach after Stop was accepted")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1, depth, hopeless)
			defer r.Stop()
			stalled, healthy := stalledConn(), &conn{}
			if !r.Attach(stalled, 0) || !r.Attach(healthy, 0) {
				t.Fatal("attach refused")
			}
			// The stalled worker takes one item and blocks; the next depth
			// fill its queue; every delivery after that drops its oldest.
			// The healthy member gets every one of them meanwhile.
			r.deliverN(t, 0, 1, healthy)
			<-stalled.entered
			r.deliverN(t, 1, depth+tc.overflow, healthy)
			total := 1 + depth + tc.overflow
			drops := min(tc.overflow, hopeless)
			if got, _ := r.QueueDepth(); tc.evictions == 0 && got != depth {
				t.Errorf("queue depth %d, want the stalled member's full queue (%d)", got, depth)
			}

			tc.leave(t, r, stalled, healthy)
			close(stalled.stall)
			sent, discarded := r.settle(t)

			if got := r.evicted.Load(); got != tc.evictions {
				t.Errorf("Evicted fired %d times, want %d", got, tc.evictions)
			}
			if got := stalled.closes.Load(); got != tc.evictions {
				t.Errorf("stalled connection closed %d times, want %d (only eviction closes)", got, tc.evictions)
			}
			if got := r.Len(); got != tc.members {
				t.Errorf("%d members attached, want %d", got, tc.members)
			}
			// The stalled member is offered every delivery until eviction
			// takes it out of the shard.
			offered := 1 + depth + drops
			r.mu.Lock()
			tally := r.tally
			r.mu.Unlock()
			if want := (Tally{Admitted: total + offered, Dropped: drops}); tally != want {
				t.Errorf("tally %+v, want %+v", tally, want)
			}
			// Of the stalled member's items only the one in flight is sent.
			if sent != total+1 || discarded != offered-1 {
				t.Errorf("sent %d discarded %d, want %d and %d", sent, discarded, total+1, offered-1)
			}
		})
	}
}

// TestDropIsExactlyOneDiscard floods a one-slot queue while the member's
// Sends now and then hold their worker for a few stallAfter: the worker the
// watchdog adds keeps walking the flood while the member's previous item is
// still in flight, so drop-oldest keeps racing the pop that stages the next
// one. The two meet under the shard lock: with nobody detached, the
// discarded items are exactly the counted drops and everything else was
// sent.
func TestDropIsExactlyOneDiscard(t *testing.T) {
	r := newRig(1, 1, 1<<30)
	defer r.Stop()
	r.send = func(c *conn, it *item) error {
		if it.desc%10_000 == 1 {
			time.Sleep(5 * stallAfter)
		}
		return r.stallableSend(c, it)
	}
	r.Attach(&conn{}, 0)
	const deliveries = 50_000
	for i := 0; i < deliveries; i++ {
		r.Publish(desc{id: i})
	}
	waitFor(t, "every share to be done", func() bool { return r.shares.Load() == r.dones.Load() })
	sent, discarded := r.settle(t)
	r.mu.Lock()
	tally := r.tally
	r.mu.Unlock()
	if tally.Dropped == 0 {
		t.Fatal("the flood never overflowed the queue: nothing was tested")
	}
	if discarded != tally.Dropped || sent+discarded != deliveries {
		t.Errorf("%d admitted: sent %d, discarded %d, %d counted drops; want discarded == drops and the rest sent",
			deliveries, sent, discarded, tally.Dropped)
	}
}

// poolState reads a shard's worker bookkeeping.
func poolState(r *rig, shard int) (workers, parked int) {
	sh := r.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.workers, sh.parked
}

// TestStalledMemberHoldsOneWriter is the isolation rule on the real worker
// path. A member whose Send blocks forever is first in line on a shard of
// healthy members: the watchdog must give them another worker within a few
// stallAfter — once, later messages find that worker parked — while the
// stalled member keeps taking drop-oldest penalties until it is evicted.
// It costs one goroutine while it blocks and none afterwards.
func TestStalledMemberHoldsOneWriter(t *testing.T) {
	const depth, hopeless, healthyN = 4, 8, 64
	// Generous: scheduling noise under -race on a loaded box, not the rule.
	const bound = 500 * stallAfter
	r := newRig(1, depth, hopeless)
	defer r.Stop()
	stalled := stalledConn()
	r.Attach(stalled, 0)
	healthy := make([]*conn, healthyN)
	for i := range healthy {
		healthy[i] = &conn{}
		r.Attach(healthy[i], 0)
	}
	publish := func(id int) time.Duration {
		start := time.Now()
		r.Publish(desc{id: id})
		for _, c := range healthy {
			waitFor(t, "a healthy shard-mate of the stalled member", func() bool { return int(c.sent.Load()) == id+1 })
		}
		return time.Since(start)
	}
	if d := publish(0); d > bound {
		t.Errorf("first message reached the stalled member's shard-mates after %v, want under %v", d, bound)
	}
	<-stalled.entered
	// One worker is inside the stalled Send, the one the watchdog added is
	// parked: later messages pay no stall delay, so even the slowest of
	// them stays far under what a watchdog round per message would cost.
	total := 1 + depth + hopeless
	var slowest time.Duration
	for id := 1; id < total; id++ {
		slowest = max(slowest, publish(id))
	}
	if slowest > bound {
		t.Errorf("a later message took %v to reach the healthy members, want under %v", slowest, bound)
	}
	waitFor(t, "the stalled member's eviction", func() bool { return r.evicted.Load() == 1 })
	if got := stalled.closes.Load(); got != 1 {
		t.Errorf("evicted connection closed %d times, want 1", got)
	}
	if w, _ := poolState(r, 0); w != 2 {
		t.Errorf("%d workers while one socket blocks, want 2: the blocked one and one for everybody else", w)
	}
	r.mu.Lock()
	tally := r.tally
	r.mu.Unlock()
	if want := (Tally{Admitted: total * (healthyN + 1), Dropped: hopeless}); tally != want {
		t.Errorf("tally %+v, want %+v", tally, want)
	}
	close(stalled.stall)
	waitFor(t, "the surplus worker to exit", func() bool { w, p := poolState(r, 0); return w == 1 && p == 1 })
	// Of the stalled member's items only the one in flight is sent.
	if sent, discarded := r.settle(t); sent != total*healthyN+1 || discarded != total-1 {
		t.Errorf("sent %d discarded %d, want %d and %d", sent, discarded, total*healthyN+1, total-1)
	}
}

// TestGoroutinesDoNotScaleWithMembers: a group costs its K shard workers
// until a member has something to send, and O(K) goroutines however many
// members it serves.
func TestGoroutinesDoNotScaleWithMembers(t *testing.T) {
	const shards, members = 4, 10_000
	// Earlier tests' workers may still be exiting: wait for a quiet count.
	base := runtime.NumGoroutine()
	waitFor(t, "the goroutine count to settle", func() bool {
		time.Sleep(10 * time.Millisecond)
		prev := base
		base = runtime.NumGoroutine()
		return base == prev
	})
	r := newRig(shards, 4, 8)
	defer r.Stop()
	r.Publish(desc{id: 0})
	if got := runtime.NumGoroutine() - base; got != shards {
		t.Errorf("a group nobody attached to runs %d goroutines, want its %d shard workers", got, shards)
	}
	conns := make([]*conn, members)
	for i := range conns {
		conns[i] = &conn{}
		r.Attach(conns[i], 0)
	}
	if got := runtime.NumGoroutine() - base; got != shards {
		t.Errorf("%d goroutines after attaching %d idle members, want %d: Attach starts none", got, members, shards)
	}
	peak := 0
	for id := 0; id < 3; id++ {
		r.Publish(desc{id: id + 1})
		peak = max(peak, runtime.NumGoroutine()-base)
		for _, c := range conns {
			waitFor(t, "every member to be sent the message", func() bool { return int(c.sent.Load()) == id+1 })
		}
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	// K parked workers; a loaded box may let the watchdog add a worker or
	// two per shard, and its own callback is briefly a goroutine.
	if limit := 4 * shards; peak > limit {
		t.Errorf("%d goroutines serving %d members, want at most %d (O(shards))", peak, members, limit)
	}
	r.settle(t)
}

// TestEvictionRacesRemove: a hopeless eviction and a concurrent Remove of
// the same member have a single arbiter. Exactly one of them detaches it —
// either Evicted fires or Remove reports true, never both, never neither.
func TestEvictionRacesRemove(t *testing.T) {
	for i := 0; i < 300; i++ {
		r := newRig(1, 1, 1)
		c := stalledConn()
		r.Attach(c, 0)
		r.deliverN(t, 0, 1, nil)
		<-c.entered
		r.deliverN(t, 1, 1, nil) // queue full: the next delivery evicts

		var removed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); r.deliver(desc{id: 2}) }()
		go func() { defer wg.Done(); removed.Store(r.Remove(c)) }()
		wg.Wait()

		evicted := r.evicted.Load()
		if evicted > 1 || (evicted == 1) == removed.Load() {
			t.Fatalf("iteration %d: Evicted fired %d times and Remove reported %v", i, evicted, removed.Load())
		}
		if r.Len() != 0 || r.Remove(c) {
			t.Fatalf("iteration %d: member still attached after leaving", i)
		}
		close(c.stall)
		r.settle(t)
		r.Stop()
	}
}

// TestAttachRacesStop: every Attach that races Stop is either accepted —
// and then detached by that Stop — or refused; none is left attached to a
// stopped group with a worker nobody will stop (leakcheck would see it),
// and the first item handed to it is consumed exactly once either way.
func TestAttachRacesStop(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := newRig(4, 4, 8)
		var accepted atomic.Int32
		var wg sync.WaitGroup
		for a := 0; a < 4; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					if r.Attach(&conn{}, 0, r.newItem(-1)) {
						accepted.Add(1)
					}
				}
			}()
		}
		time.Sleep(time.Duration(i%5) * 50 * time.Microsecond)
		keys := r.Stop()
		wg.Wait()
		if int(accepted.Load()) != len(keys) {
			t.Fatalf("iteration %d: %d attaches accepted, Stop detached %d", i, accepted.Load(), len(keys))
		}
		if r.Len() != 0 {
			t.Fatalf("iteration %d: %d members attached after Stop", i, r.Len())
		}
		r.settle(t)
	}
}

// TestChurnLedger runs the real worker path under churn: publishers race
// attaches, removes and evictions. Afterwards every member has left exactly
// once — evicted or removed, never both — every item ever queued has been
// sent or discarded exactly once, no member saw two Sends at once or out of
// queue order (the rig polices that on every Send), and every share is done.
func TestChurnLedger(t *testing.T) {
	const churners, rounds = 4, 200
	r := newRig(4, 2, 3)
	stalled := stalledConn() // never drains: evicted as hopeless mid-run
	r.Attach(stalled, 0)

	var pub, churn sync.WaitGroup
	var removed atomic.Int32
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		pub.Add(1)
		go func() {
			defer pub.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Publish(desc{id: i})
				}
			}
		}()
	}
	for w := 0; w < churners; w++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < rounds; i++ {
				c := &conn{}
				r.Attach(c, 0, r.newItem(-1))
				time.Sleep(50 * time.Microsecond)
				// A flooded member may have been evicted meanwhile.
				if r.Remove(c) {
					removed.Add(1)
				}
			}
		}()
	}
	churn.Wait()
	waitFor(t, "the stalled member's eviction", func() bool { return stalled.closes.Load() == 1 })
	close(stop)
	pub.Wait()
	close(stalled.stall)
	waitFor(t, "every share to be done", func() bool { return r.shares.Load() == r.dones.Load() })
	if keys := r.Stop(); len(keys) != 0 {
		t.Errorf("Stop detached %d members after all were removed or evicted", len(keys))
	}
	sent, discarded := r.settle(t)
	if got, want := removed.Load()+r.evicted.Load(), int32(1+churners*rounds); got != want {
		t.Errorf("%d members left (removed or evicted), want each of the %d exactly once", got, want)
	}
	// Conservation is exact: what was admitted (plus the item handed to
	// each Attach) is what was sent or discarded, and a counted drop is one
	// discarded item, so the tally never claims more drops than discards.
	if admitted := r.tally.Admitted + churners*rounds; sent+discarded != admitted {
		t.Errorf("sent %d + discarded %d != %d admitted", sent, discarded, admitted)
	}
	if r.tally.Dropped > discarded {
		t.Errorf("tally counts %d drops but only %d items were discarded", r.tally.Dropped, discarded)
	}
}

// TestPublishSharesPerBusyShard runs the real worker path: members spread
// round-robin, a descriptor is shared only with shards that have members,
// every Share is matched by one Done, and first items precede deliveries.
func TestPublishSharesPerBusyShard(t *testing.T) {
	r := newRig(4, 8, 8)
	defer r.Stop()
	r.Publish(desc{id: 0})
	if got := r.shares.Load(); got != 0 {
		t.Fatalf("empty group shared a descriptor %d times", got)
	}

	var order []int
	var mu sync.Mutex
	first := &item{desc: -1}
	rec := &conn{}
	r.send = func(c *conn, it *item) error {
		if c == rec {
			mu.Lock()
			order = append(order, it.desc)
			mu.Unlock()
		}
		c.sent.Add(1)
		return nil
	}
	r.Attach(rec, 0, first)
	r.Publish(desc{id: 1})
	waitFor(t, "delivery to the only member", func() bool { return rec.sent.Load() == 2 })
	if got := r.shares.Load(); got != 1 {
		t.Errorf("descriptor shared with %d shards, want only the one with a member", got)
	}
	mu.Lock()
	if len(order) != 2 || order[0] != -1 || order[1] != 1 {
		t.Errorf("worker sent %v, want the first item then the delivery", order)
	}
	mu.Unlock()

	conns := []*conn{rec}
	for i := 0; i < 7; i++ {
		c := &conn{}
		conns = append(conns, c)
		r.Attach(c, 0)
	}
	for i, sh := range r.shards {
		if got := sh.n.Load(); got != 2 {
			t.Errorf("shard %d has %d members, want 2 (round-robin)", i, got)
		}
	}
	r.Publish(desc{id: 2, only: conns[3]})
	waitFor(t, "every share to be done", func() bool { return r.dones.Load() == 5 })
	if got := r.shares.Load(); got != 5 {
		t.Errorf("%d shares after publishing to 4 busy shards, want 5 in total", got)
	}
	r.mu.Lock()
	tally := r.tally
	r.mu.Unlock()
	if want := (Tally{Admitted: 2, Skipped: 7}); tally != want {
		t.Errorf("tally %+v, want %+v", tally, want)
	}
}

// TestFirstItemsNeedNoDelivery: what Attach hands over reaches the socket
// with no message published — a hub's joining viewer gets its sequence
// headers at once, not with the next keyframe — and a member attached
// without first items costs no worker a turn.
func TestFirstItemsNeedNoDelivery(t *testing.T) {
	r := newRig(1, 4, 8)
	defer r.Stop()
	c := &conn{}
	r.Attach(c, 0, r.newItem(-1))
	waitFor(t, "the first item to be sent", func() bool { return c.sent.Load() == 1 })
	r.Attach(&conn{}, 0)
	if items, descs := r.QueueDepth(); items != 0 || descs != 0 {
		t.Errorf("QueueDepth = %d items, %d descriptors after the first item was sent, want 0, 0", items, descs)
	}
	if sent, _ := r.settle(t); sent != 1 {
		t.Errorf("%d items sent, want the first item", sent)
	}
}

// TestWriterStopsOnSendError: a failed Send retires the member's queue;
// the member stays attached (its owner removes it when the connection's
// read side notices) and what piles up behind it is discarded, not leaked.
func TestWriterStopsOnSendError(t *testing.T) {
	r := newRig(1, 4, 8)
	defer r.Stop()
	c := &conn{}
	r.send = func(_ *conn, it *item) error {
		it.sent.Add(1)
		return errors.New("broken pipe")
	}
	r.Attach(c, 0)
	r.deliverN(t, 0, 1, nil)
	waitFor(t, "the first send to fail", func() bool { return r.items[0].sent.Load() == 1 })
	r.deliverN(t, 1, 3, nil)
	if !r.Remove(c) {
		t.Fatal("member with a failed connection was no longer attached")
	}
	if sent, _ := r.settle(t); sent != 1 {
		t.Errorf("%d items sent after the first failed, want 1", sent)
	}
	if got := c.closes.Load(); got != 1 {
		t.Errorf("failed connection closed %d times, want 1", got)
	}
}

// TestStalledMemberDoesNotBlockPublish: a member whose Send blocks forever
// is alone on its shard, so the worker holding it is the shard's only one,
// and twice the shard's FIFO depth is published behind it. The publisher
// waits on workers, never on a socket: the watchdog's added worker walks
// the FIFO (the stalled member takes drop-oldest penalties), so every
// Publish returns within the stall bound.
func TestStalledMemberDoesNotBlockPublish(t *testing.T) {
	const bound = 500 * stallAfter
	r := newRig(1, 4, 1<<30)
	defer r.Stop()
	stalled := stalledConn()
	r.Attach(stalled, 0)
	r.Publish(desc{id: 0})
	<-stalled.entered
	for id := 1; id <= 2*len(r.shards[0].descs); id++ {
		start := time.Now()
		r.Publish(desc{id: id})
		if d := time.Since(start); d > bound {
			t.Errorf("Publish #%d behind a stalled socket took %v, want under %v", id, d, bound)
		}
	}
	waitFor(t, "every share to be done", func() bool { return r.shares.Load() == r.dones.Load() })
	close(stalled.stall)
	r.settle(t)
}

// TestStealKeepsPerMemberOrder: the first entry of a batch blocks forever
// and 64 healthy shard-mates sit behind it while bursts keep coming. The
// worker the watchdog adds takes over the rest of the stuck batch; every
// healthy member is then sent every item exactly once and in order (the
// rig polices both on every Send), and none of them drops.
func TestStealKeepsPerMemberOrder(t *testing.T) {
	const healthyN, messages = 64, 200
	r := newRig(1, 64, 1<<30)
	defer r.Stop()
	stalled := stalledConn()
	r.Attach(stalled, 0)
	healthy := make([]*conn, healthyN)
	for i := range healthy {
		healthy[i] = &conn{}
		r.Attach(healthy[i], 0)
	}
	// Bursts shorter than a ring: whichever workers run, none walks more
	// than a ring's depth ahead of a healthy member's sends.
	const burst = 32
	for id := 0; id < messages; id++ {
		r.Publish(desc{id: id})
		if id%burst == burst-1 || id == messages-1 {
			for _, c := range healthy {
				waitFor(t, "a healthy member to be sent the burst", func() bool { return int(c.sent.Load()) == id+1 })
			}
		}
	}
	waitFor(t, "every share to be done", func() bool { return r.shares.Load() == r.dones.Load() })
	r.mu.Lock()
	dropped := r.tally.Dropped
	r.mu.Unlock()
	// Only the stalled member drops: its ring holds 64 of the 199 items
	// behind the one it is stuck on.
	if want := messages - 1 - 64; dropped != want {
		t.Errorf("%d drops, want %d, all the stalled member's", dropped, want)
	}
	// Released, the stalled member is sent what it was stuck on and its ring.
	close(stalled.stall)
	if sent, discarded := r.settle(t); sent != messages*healthyN+1+64 || discarded != dropped {
		t.Errorf("sent %d discarded %d, want %d and %d", sent, discarded, messages*healthyN+1+64, dropped)
	}
}

// sink is a member key whose Send only counts.
type sink struct{ sent *atomic.Int64 }

func (sink) Close() error { return nil }

// TestSteadyStateDeliveryAllocs: once its batches and rings have grown,
// delivering a descriptor to a 1 000-member group allocates nothing — not
// per member (an item, a wakeup, a queue node), not per batch.
func TestSteadyStateDeliveryAllocs(t *testing.T) {
	const members = 1000
	var sent atomic.Int64
	g := New(2, 16, 4, 8, Hooks[sink, struct{}, int, int]{
		Share:   func(int) {},
		Done:    func(int, Tally) {},
		Admit:   func(_ *Member[sink, struct{}, int], d int) (int, bool) { return d, true },
		Send:    func(k sink, _ int) error { k.sent.Add(1); return nil },
		Discard: func(int) {},
		Evicted: func(sink) {},
	})
	defer g.Stop()
	for i := 0; i < members; i++ {
		g.Attach(sink{sent: &sent}, struct{}{})
	}
	want := int64(0)
	deliver := func() {
		want += members
		g.Publish(int(want))
		for sent.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 10; i++ {
		deliver()
	}
	if allocs := testing.AllocsPerRun(200, deliver); allocs != 0 {
		t.Errorf("%v allocations per descriptor delivered to %d members, want 0", allocs, members)
	}
}

// TestShardsShareNoCacheLine: a shard's workers write its members' state on
// every walk and every batch return, so a 64-byte line holding members of
// two shards is written by two workers at once. Members attached from one
// goroutine alternate shards; the slabs must still keep each line to one
// shard.
func TestShardsShareNoCacheLine(t *testing.T) {
	const line, members = 64, 1000
	for _, shards := range []int{2, 4} {
		r := newRig(shards, 4, 8)
		for i := 0; i < members; i++ {
			r.Attach(&conn{}, 0)
		}
		owner := map[uintptr]int{} // line address → shard
		for s, sh := range r.shards {
			sh.mu.Lock()
			for _, m := range sh.members {
				start := uintptr(unsafe.Pointer(m))
				for l := start &^ (line - 1); l < start+unsafe.Sizeof(*m); l += line {
					if o, ok := owner[l]; ok && o != s {
						t.Errorf("%d shards: line %#x holds members of shards %d and %d", shards, l, o, s)
					}
					owner[l] = s
				}
			}
			sh.mu.Unlock()
		}
		if len(r.Stop()) != members {
			t.Errorf("%d shards: Stop detached fewer than the %d members attached", shards, members)
		}
	}
}

// TestDepartedMembersPinNothing: a member's slot lives as long as its slab,
// which any attached slab-mate keeps alive, so a member that has left must
// leave nothing reachable from its slot — not its connection above all. For
// each way of leaving, with a slab-mate still attached, the departed
// member's key must be collectable.
func TestDepartedMembersPinNothing(t *testing.T) {
	const depth, hopeless = 2, 3
	for _, tc := range []struct {
		name  string
		leave func(t *testing.T, r *rig) weak.Pointer[conn]
	}{
		{name: "remove idle", leave: func(t *testing.T, r *rig) weak.Pointer[conn] {
			c := &conn{}
			r.Attach(c, 0)
			if !r.Remove(c) {
				t.Error("Remove of an attached member reported false")
			}
			return weak.Make(c)
		}},
		{name: "remove in flight", leave: func(t *testing.T, r *rig) weak.Pointer[conn] {
			c := stalledConn()
			r.Attach(c, 0)
			r.deliverN(t, 0, 1, nil)
			<-c.entered
			if !r.Remove(c) {
				t.Error("Remove of an attached member reported false")
			}
			close(c.stall)
			return weak.Make(c)
		}},
		{name: "evict", leave: func(t *testing.T, r *rig) weak.Pointer[conn] {
			c := stalledConn()
			r.Attach(c, 0)
			r.deliverN(t, 0, 1, nil)
			<-c.entered
			r.deliverN(t, 1, depth+hopeless, nil)
			waitFor(t, "the stalled member's eviction", func() bool { return r.evicted.Load() == 1 })
			close(c.stall)
			return weak.Make(c)
		}},
		{name: "send error", leave: func(t *testing.T, r *rig) weak.Pointer[conn] {
			c := &conn{}
			r.Attach(c, 0)
			r.send = func(_ *conn, it *item) error {
				it.sent.Add(1)
				return errors.New("broken pipe")
			}
			r.deliverN(t, 0, 1, nil)
			waitFor(t, "the failed connection's close", func() bool { return c.closes.Load() == 1 })
			if !r.Remove(c) {
				t.Error("member with a failed connection was no longer attached")
			}
			return weak.Make(c)
		}},
		{name: "remove, then send error", leave: func(t *testing.T, r *rig) weak.Pointer[conn] {
			c := stalledConn()
			r.Attach(c, 0)
			r.send = func(c *conn, it *item) error {
				r.stallableSend(c, it)
				return errors.New("broken pipe")
			}
			r.deliverN(t, 0, 1, nil)
			<-c.entered
			if !r.Remove(c) {
				t.Error("Remove of an attached member reported false")
			}
			close(c.stall)
			waitFor(t, "the failed connection's close", func() bool { return c.closes.Load() == 1 })
			return weak.Make(c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1, depth, hopeless)
			defer r.Stop()
			mate := &conn{}
			r.Attach(mate, 0)
			w := tc.leave(t, r)
			waitFor(t, "the departed member's key to be collected", func() bool {
				runtime.GC()
				return w.Value() == nil
			})
			if r.Len() != 1 {
				t.Errorf("%d members attached, want the slab-mate alone", r.Len())
			}
			r.settle(t)
		})
	}
}
