package service

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/flv"
	"periscope/internal/rtmp"
)

// fakeAddr satisfies net.Addr for the in-memory connections below.
type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// baseConn implements the inert parts of net.Conn.
type baseConn struct{}

func (baseConn) Read(b []byte) (int, error)         { select {} }
func (baseConn) Close() error                       { return nil }
func (baseConn) LocalAddr() net.Addr                { return fakeAddr{} }
func (baseConn) RemoteAddr() net.Addr               { return fakeAddr{} }
func (baseConn) SetDeadline(t time.Time) error      { return nil }
func (baseConn) SetReadDeadline(t time.Time) error  { return nil }
func (baseConn) SetWriteDeadline(t time.Time) error { return nil }

// stallConn blocks every Write until unblocked: a viewer whose TCP window
// has collapsed. Close is counted, for the repeated-Close regression.
type stallConn struct {
	baseConn
	unblock chan struct{}
	closes  atomic.Int32
}

func (c *stallConn) Write(b []byte) (int, error) {
	<-c.unblock
	return len(b), nil
}

func (c *stallConn) Close() error {
	c.closes.Add(1)
	return nil
}

// countConn counts bytes written: a healthy viewer draining instantly.
type countConn struct {
	baseConn
	n atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return len(b), nil
}

// keyframeTag builds a parseable FLV video keyframe tag of roughly the
// given payload size.
func keyframeTag(size int) []byte {
	return flv.VideoTagData{
		FrameType:  flv.VideoKeyFrame,
		PacketType: flv.AVCNALU,
		Data:       make([]byte, size),
	}.Marshal()
}

// interframeTag builds a parseable FLV non-keyframe video tag.
func interframeTag(size int) []byte {
	return flv.VideoTagData{
		FrameType:  flv.VideoInterFrame,
		PacketType: flv.AVCNALU,
		Data:       make([]byte, size),
	}.Marshal()
}

func benchHub() *hub {
	return newHub(&Service{}, &broadcastmodel.Broadcast{ID: "bench"})
}

// ingestFeed feeds tags through a hub the way the ingest read loop does:
// each tag crosses a chunk writer and reader, so its payload comes from the
// message pool that the refcounted fan-out recycles it into once the last
// viewer queue drains.
type ingestFeed struct {
	wire bytes.Buffer
	cw   *rtmp.ChunkWriter
	cr   *rtmp.ChunkReader
}

func newIngestFeed() *ingestFeed {
	f := &ingestFeed{}
	f.cw = rtmp.NewChunkWriter(&f.wire)
	f.cr = rtmp.NewChunkReader(&f.wire)
	return f
}

func (f *ingestFeed) push(h *hub, tag []byte, ts uint32) {
	if err := f.cw.WriteMessage(6, rtmp.Message{TypeID: rtmp.TypeVideo, Timestamp: ts, Payload: tag}); err != nil {
		panic(err)
	}
	msg, err := f.cr.ReadMessage()
	if err != nil {
		panic(err)
	}
	h.onMedia(msg)
}

// TestSlowViewerDoesNotStallOthers covers the head-of-line requirement: a
// viewer whose connection has stalled completely must not delay delivery
// to the other viewers of the same broadcast.
func TestSlowViewerDoesNotStallOthers(t *testing.T) {
	h := benchHub()
	defer h.stop()

	stalled := &stallConn{unblock: make(chan struct{})}
	defer close(stalled.unblock)
	healthy := &countConn{}
	scStalled := &rtmp.ServerConn{Conn: rtmp.NewConn(stalled)}
	h.addViewer(scStalled)
	h.addViewer(&rtmp.ServerConn{Conn: rtmp.NewConn(healthy)})

	in := newIngestFeed()
	tag := keyframeTag(1024)
	// More messages than the queue holds, so the stalled viewer must hit
	// the drop-oldest policy while the healthy one keeps receiving.
	sent := viewerQueueDepth + 128
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sent; i++ {
			in.push(h, tag, uint32(i*33))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out blocked on the stalled viewer")
	}

	deadline := time.Now().Add(5 * time.Second)
	want := int64(sent) * int64(len(tag)) / 2 // allow chunk overhead slack
	for time.Now().Before(deadline) {
		if healthy.n.Load() >= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := healthy.n.Load(); got < want {
		t.Fatalf("healthy viewer received %d bytes, want at least %d", got, want)
	}

	if h.fan.Len() != 2 {
		t.Fatal("stalled viewer no longer attached")
	}
	waitFor(t, func() bool { return h.stats.drops.Load() > 0 }, "the stalled viewer to hit the drop-oldest policy")
}

// TestHopelessViewerClosedOnce is the regression test for the repeated
// Close() storm: once a viewer crosses viewerMaxDrops it must be closed
// exactly once, its sender stopped, and the viewer removed from the set —
// not re-Closed on every subsequent message until OnClose fires. (The
// queue/drop/eviction arithmetic itself is pinned deterministically in
// internal/fanout.)
func TestHopelessViewerClosedOnce(t *testing.T) {
	h := newFanoutHub(&Service{}, &broadcastmodel.Broadcast{ID: "hopeless"}, 1)
	defer h.stop()

	stalled := &stallConn{unblock: make(chan struct{})}
	defer close(stalled.unblock)
	sc := &rtmp.ServerConn{Conn: rtmp.NewConn(stalled)}
	h.addViewer(sc)

	in := newIngestFeed()
	tag := keyframeTag(64)
	// The sender takes one message then stalls in Write; the queue fills;
	// every further message then drops one. Push past viewerMaxDrops.
	total := 1 + viewerQueueDepth + viewerMaxDrops + 16
	for i := 0; i < total; i++ {
		in.push(h, tag, uint32(i*33))
	}
	waitFor(t, func() bool { return h.stats.hopeless.Load() == 1 }, "the hopeless disconnect")
	if got := stalled.closes.Load(); got != 1 {
		t.Fatalf("hopeless viewer closed %d times, want exactly 1", got)
	}
	if n := h.ViewerCount(); n != 0 {
		t.Fatalf("hopeless viewer still attached (count %d)", n)
	}
	waitFor(t, func() bool { return h.stats.drops.Load() >= viewerMaxDrops }, "the drop counter")
	// Old behaviour re-Closed on every later message; these must not, and a
	// late OnClose for the same connection is a no-op.
	for i := 0; i < 32; i++ {
		in.push(h, tag, uint32((total+i)*33))
	}
	h.fan.Remove(sc)
	if got := stalled.closes.Load(); got != 1 {
		t.Fatalf("further media re-closed the removed viewer (%d closes)", got)
	}
	if got := h.stats.hopeless.Load(); got != 1 {
		t.Errorf("hopeless disconnect counter = %d, want 1", got)
	}
}

// pipeViewer is a viewer attached over an in-memory pipe: the hub's writer
// blocks whenever the test is not reading, and what the test reads is what
// a player would see on the wire.
type pipeViewer struct {
	sc   *rtmp.ServerConn
	peer *rtmp.Conn
}

func newPipeViewer(t *testing.T, h *hub) *pipeViewer {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	v := &pipeViewer{sc: &rtmp.ServerConn{Conn: rtmp.NewConn(a)}, peer: rtmp.NewConn(b)}
	h.addViewer(v.sc)
	return v
}

// readUntil reads media up to and including the message with timestamp ts.
func (v *pipeViewer) readUntil(t *testing.T, ts uint32) []rtmp.Message {
	t.Helper()
	var got []rtmp.Message
	for {
		m, err := v.peer.ReadMessage()
		if err != nil {
			t.Errorf("viewer read: %v", err)
			return got
		}
		got = append(got, m)
		if m.Timestamp == ts {
			return got
		}
	}
}

// TestKeyframeResyncAcrossShards checks the hub's admit policy on every
// shard, as seen on the viewers' wire: sequence headers first, no media
// before a keyframe, and after drops the headers are re-sent ahead of the
// keyframe that restarts playback.
func TestKeyframeResyncAcrossShards(t *testing.T) {
	h := newFanoutHub(&Service{}, &broadcastmodel.Broadcast{ID: "resync"}, 4)
	defer h.stop()
	hd := &seqHeaders{video: keyframeTag(16), audio: []byte{0xAF, 0x00}}
	h.seqHdrs.Store(hd)
	isVideoSeq := func(m rtmp.Message) bool { return m.TypeID == rtmp.TypeVideo && bytes.Equal(m.Payload, hd.video) }
	isAudioSeq := func(m rtmp.Message) bool { return m.TypeID == rtmp.TypeAudio && bytes.Equal(m.Payload, hd.audio) }

	// One viewer per shard (round-robin attach).
	viewers := make([]*pipeViewer, 4)
	for i := range viewers {
		viewers[i] = newPipeViewer(t, h)
	}
	each := func(f func(i int, v *pipeViewer)) {
		var wg sync.WaitGroup
		for i, v := range viewers {
			wg.Add(1)
			go func() { defer wg.Done(); f(i, v) }()
		}
		wg.Wait()
	}

	// An interframe must not reach a waiting viewer on any shard; the next
	// keyframe starts playback, behind the sequence headers.
	in := newIngestFeed()
	in.push(h, interframeTag(64), 33)
	in.push(h, keyframeTag(64), 66)
	each(func(i int, v *pipeViewer) {
		got := v.readUntil(t, 66)
		if len(got) != 3 || !isVideoSeq(got[0]) || !isAudioSeq(got[1]) {
			t.Errorf("shard %d: join delivered %d messages, want sequence headers then the keyframe", i, len(got))
		}
	})

	// Nobody reads now, so every writer stalls: overflow the queues until
	// drop-oldest fires. A viewer that drops goes back to waiting, so each
	// drops exactly once and everything behind that (ts 5000) is held back.
	for i := 0; i < viewerQueueDepth+8; i++ {
		in.push(h, interframeTag(64), uint32(99+i))
	}
	in.push(h, interframeTag(64), 5000)
	waitFor(t, func() bool { return h.stats.drops.Load() == int64(len(viewers)) }, "one drop on every shard")

	// At the next keyframe every shard must resync: headers re-sent, then
	// the keyframe, then media flows again. A real viewer drains all the
	// time; read a little first so the resync burst fits its queue without
	// dropping again.
	backlog := make([][]rtmp.Message, len(viewers))
	each(func(i int, v *pipeViewer) { backlog[i] = v.readUntil(t, 99+8) })
	resyncsBefore := h.stats.resyncs.Load()
	in.push(h, keyframeTag(64), 9999)
	in.push(h, interframeTag(64), 10032)
	each(func(i int, v *pipeViewer) {
		got := append(backlog[i], v.readUntil(t, 10032)...)
		if len(got) < 4 {
			t.Errorf("shard %d: only %d messages after the overflow", i, len(got))
			return
		}
		for _, m := range got {
			if m.Timestamp == 5000 {
				t.Errorf("shard %d: interframe delivered to a viewer waiting for a keyframe", i)
			}
		}
		tail := got[len(got)-4:]
		if !isVideoSeq(tail[0]) || !isAudioSeq(tail[1]) {
			t.Errorf("shard %d: resync did not re-send sequence headers before the keyframe", i)
		}
		if tail[2].Timestamp != 9999 {
			t.Errorf("shard %d: message after the headers is not the resync keyframe (ts %d)", i, tail[2].Timestamp)
		}
	})
	if got := h.stats.resyncs.Load() - resyncsBefore; got != int64(len(viewers)) {
		t.Errorf("resync counter advanced by %d, want %d", got, len(viewers))
	}
}

// TestViewerChurnDuringShardedFanout hammers concurrent attach/detach
// while a publisher pumps refcounted media through multiple shard
// workers. Run under -race it validates the locking of the shard viewer
// lists and the payload refcount handoffs.
func TestViewerChurnDuringShardedFanout(t *testing.T) {
	h := newFanoutHub(&Service{}, &broadcastmodel.Broadcast{ID: "churn"}, 4)
	h.seqHdrs.Store(&seqHeaders{video: keyframeTag(16), audio: []byte{0xAF, 0x00}})

	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		in := newIngestFeed()
		tag := keyframeTag(512)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			in.push(h, tag, uint32(i*33))
		}
	}()

	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 40; i++ {
				c := &rtmp.ServerConn{Conn: rtmp.NewConn(&countConn{})}
				h.addViewer(c)
				time.Sleep(time.Millisecond)
				h.fan.Remove(c)
			}
		}()
	}
	churn.Wait()
	close(stop)
	pub.Wait()
	h.stop()
	if n := h.ViewerCount(); n != 0 {
		t.Fatalf("%d viewers leaked after churn", n)
	}
}

// benchFanout drives one hub at n viewers with pool-drawn payloads, the
// relay steady state: every payload is recycled by the refcounted fan-out
// once the last queue drains. Publishing floods the hub, so it also reports
// the share of viewer-messages dropped oldest and the viewers evicted as
// hopeless: ns/op compares only between runs that shed load alike.
func benchFanout(b *testing.B, h *hub, n int) {
	defer h.stop()
	for i := 0; i < n; i++ {
		h.addViewer(&rtmp.ServerConn{Conn: rtmp.NewConn(&countConn{})})
	}
	in := newIngestFeed()
	tag := keyframeTag(4096)
	b.SetBytes(int64(len(tag)) * int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.push(h, tag, uint32(i*33))
	}
	b.StopTimer()
	b.ReportMetric(float64(h.stats.drops.Load())/float64(b.N*n), "drops/viewer-msg")
	b.ReportMetric(float64(h.stats.hopeless.Load()), "evicted")
}

// BenchmarkHubFanout measures the sharded fan-out of paced media messages
// to N attached viewers; SetBytes counts the payload delivered per
// operation across all viewers.
func BenchmarkHubFanout(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("viewers=%d", n), func(b *testing.B) {
			benchFanout(b, benchHub(), n)
		})
	}
}
