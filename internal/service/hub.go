package service

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/aac"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/fanout"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/rtmp"
)

// ingestServer is one regional RTMP server of the "vidman" fleet.
type ingestServer struct {
	svc    *Service
	region string
	srv    *rtmp.Server
}

func newIngestServer(svc *Service, region string) (*ingestServer, error) {
	ing := &ingestServer{svc: svc, region: region}
	srv, err := rtmp.ListenAndServe("127.0.0.1:0", ing)
	if err != nil {
		return nil, err
	}
	srv.Name = region
	ing.srv = srv
	return ing, nil
}

// OnConnect accepts every app.
func (ing *ingestServer) OnConnect(c *rtmp.ServerConn, app string) error { return nil }

// OnPlay attaches a viewer to the broadcast's hub.
func (ing *ingestServer) OnPlay(c *rtmp.ServerConn, name string) error {
	h := ing.svc.hubFor(name)
	if h == nil {
		return fmt.Errorf("service: no live broadcast %q", name)
	}
	h.addViewer(c)
	return nil
}

// OnPublish registers the broadcaster connection.
func (ing *ingestServer) OnPublish(c *rtmp.ServerConn, name string) error { return nil }

// OnMedia routes publisher media into the hub pipeline. The hub takes
// ownership of the pooled payload; without a hub it goes straight back to
// the pool.
func (ing *ingestServer) OnMedia(c *rtmp.ServerConn, msg rtmp.Message) {
	if h := ing.svc.hubFor(c.StreamName); h != nil {
		h.onMedia(msg)
	} else {
		rtmp.RecycleMessagePayload(msg.Payload)
	}
}

// OnClose detaches viewers; a no-op for one the delivery path already
// evicted as hopeless.
func (ing *ingestServer) OnClose(c *rtmp.ServerConn) {
	if c.Playing {
		if h := ing.svc.hubFor(c.StreamName); h != nil {
			h.fan.Remove(c)
		}
	}
}

// hubFor looks up a live pipeline. It runs once per media message, so it
// takes only the read side of the service lock: media routing never waits
// on control-plane writes (hub creation, shutdown).
func (s *Service) hubFor(id string) *hub {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hubs[id]
}

// ensureHub starts the broadcast pipeline on first access.
func (s *Service) ensureHub(b *broadcastmodel.Broadcast) (*hub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("service: closed")
	}
	if h, ok := s.hubs[b.ID]; ok {
		return h, nil
	}
	h := newHub(s, b)
	s.hubs[b.ID] = h
	if err := h.startBroadcaster(); err != nil {
		delete(s.hubs, b.ID)
		h.stop()
		return nil, err
	}
	return h, nil
}

// viewerQueueDepth bounds each viewer's async send queue. At ~30 media
// messages per second this is several seconds of backlog.
const viewerQueueDepth = 256

// viewerMaxDrops disconnects a viewer that the drop-oldest policy has had
// to penalize this many times — it is not keeping up at all.
const viewerMaxDrops = 4096

// shardQueueDepth bounds each fan-out shard's descriptor queue.
const shardQueueDepth = 256

// feedQueueDepth bounds the HLS feed queue. The feed must not drop (TS
// continuity), so the publisher blocks if the muxer falls this far behind.
const feedQueueDepth = 256

// maxFanoutShards caps the per-hub fan-out worker count.
const maxFanoutShards = 16

// outMsg is one queued media message for a viewer. ref is nil for
// hub-owned buffers (cached sequence headers); otherwise the queue slot
// holds one reference, dropped via release.
type outMsg struct {
	typeID    uint8
	timestamp uint32
	payload   []byte
	ref       *rtmp.SharedPayload
}

func (m outMsg) release() {
	if m.ref != nil {
		m.ref.Release()
	}
}

// shardMsg is the per-shard fan-out descriptor: the publisher parses the
// FLV tag header once and publishes one of these to every shard instead
// of touching any viewer itself. Each shard it is handed to holds one
// payload reference until it has walked its viewers.
type shardMsg struct {
	typeID     uint8
	timestamp  uint32
	isVideoKey bool
	sp         *rtmp.SharedPayload
}

// viewer is the resync state of one attached RTMP viewer, owned by the
// fan-out delivery path (admit).
type viewer struct {
	// started flips at the first keyframe: streams always start decodable,
	// which costs up to a GOP of join delay, as real relays do.
	started bool
	// syncedAt is the viewer's drop count at its last keyframe. A drop since
	// then may have taken video (or the queued sequence headers), leaving
	// the decoder mid-GOP: the viewer is held until the next keyframe and
	// its headers are re-sent there.
	syncedAt int
}

// admit is the hub's delivery policy: no media before a keyframe, and
// after drops the sequence headers again before the keyframe that restarts
// playback. Each admitted viewer's queue slot takes one payload reference.
func (h *hub) admit(m *fanout.Member[*rtmp.ServerConn, viewer, outMsg], d shardMsg) (outMsg, bool) {
	if resync := m.Drops() != m.State.syncedAt; resync || !m.State.started {
		if !d.isVideoKey {
			return outMsg{}, false
		}
		if resync {
			for _, hd := range h.seqHdrs.Load().msgs() {
				m.Push(hd)
			}
			// Count only drop-induced resyncs, not every viewer's initial
			// join sync — the metric reads as drop-recovery churn in the
			// snapshot.
			h.stats.resyncs.Add(1)
		}
		m.State = viewer{started: true, syncedAt: m.Drops()}
	}
	d.sp.Retain()
	return outMsg{typeID: d.typeID, timestamp: d.timestamp, payload: d.sp.Bytes(), ref: d.sp}, true
}

// sendMedia writes one queued message to the viewer. On a write error the
// core closes the connection; the viewer's read loop then triggers OnClose
// and the hub removes it.
func sendMedia(c *rtmp.ServerConn, m outMsg) error {
	defer m.release()
	if m.typeID == rtmp.TypeAudio {
		return c.SendAudio(m.timestamp, m.payload)
	}
	return c.SendVideo(m.timestamp, m.payload)
}

// done drops the shard's payload reference and accounts its drops. The
// block is service-wide, so the common no-drop batch must not write it:
// every shard of every broadcast would bounce one cache line per message.
func (h *hub) done(d shardMsg, t fanout.Tally) {
	d.sp.Release()
	if t.Dropped != 0 {
		h.stats.drops.Add(int64(t.Dropped))
	}
}

// seqHeaders is an immutable snapshot of the cached FLV sequence headers,
// published on the hub so shard workers can resync viewers without taking
// the hub lock. The buffers are hub-owned copies, never pooled.
type seqHeaders struct {
	video []byte // AVC sequence header tag data
	audio []byte // AAC sequence header tag data
}

// msgs returns the cached headers as queue items, video first; queued
// ahead of media they make the stream decodable. Safe on a nil snapshot.
func (hd *seqHeaders) msgs() []outMsg {
	var out []outMsg
	if hd != nil && hd.video != nil {
		out = append(out, outMsg{typeID: rtmp.TypeVideo, payload: hd.video})
	}
	if hd != nil && hd.audio != nil {
		out = append(out, outMsg{typeID: rtmp.TypeAudio, payload: hd.audio})
	}
	return out
}

// feedMsg carries one media message (and one payload reference) to the
// HLS feed worker. vt is the tag header parsed by the publisher; its Data
// points into the shared payload.
type feedMsg struct {
	typeID    uint8
	timestamp uint32
	vt        flv.VideoTagData
	sp        *rtmp.SharedPayload
}

// hlsFeed repackages media into the segmenter on its own goroutine, so TS
// muxing cost never rides the publisher's read loop.
type hlsFeed struct {
	h    *hub
	ch   chan feedMsg
	quit chan struct{}
}

// publish hands one message to the feed worker, blocking if the muxer is
// behind: segments must not have holes, so there is no drop policy here.
func (f *hlsFeed) publish(m feedMsg) {
	select {
	case f.ch <- m:
	case <-f.quit:
		m.sp.Release()
	}
}

func (f *hlsFeed) run() {
	var annexB []byte // reused for every video frame; the segmenter keeps none of it
	for {
		select {
		case <-f.quit:
			f.drainCh()
			return
		case m := <-f.ch:
			if seg := f.h.seg.Load(); seg != nil {
				annexB = feedSegmenter(seg, annexB, m.typeID, m.timestamp, m.sp.Bytes(), m.vt)
				f.h.maybeWarmAfterFirstSegment(seg)
			}
			m.sp.Release()
		}
	}
}

func (f *hlsFeed) drainCh() {
	for {
		select {
		case m := <-f.ch:
			m.sp.Release()
		default:
			return
		}
	}
}

// hub is the per-broadcast distribution pipeline: the publisher's read
// loop parses each message once and publishes a descriptor to the RTMP
// fan-out group (and the HLS feed), instead of walking every viewer inline.
type hub struct {
	svc *Service
	b   *broadcastmodel.Broadcast

	fan *fanout.Group[*rtmp.ServerConn, viewer, shardMsg, outMsg]

	seqHdrs atomic.Pointer[seqHeaders]
	seg     atomic.Pointer[hls.Segmenter]
	feed    atomic.Pointer[hlsFeed]
	// warmedWindow flips once the first HLS segment exists and the cluster
	// anchors have been re-warmed: the promotion-time warm-up ran against
	// an empty window, so there was nothing to prefetch yet.
	warmedWindow atomic.Bool

	// stats is the service's block of shard-level delivery counters
	// (drops, resyncs, hopeless disconnects).
	stats *deliveryCounters

	mu      sync.Mutex
	stopCh  chan struct{}
	stopped bool
	pub     *rtmp.Client
	enc     *media.Encoder
}

func newHub(s *Service, b *broadcastmodel.Broadcast) *hub {
	return newFanoutHub(s, b, fanout.DefaultShards(maxFanoutShards))
}

// newFanoutHub builds a hub with an explicit shard count.
func newFanoutHub(s *Service, b *broadcastmodel.Broadcast, shards int) *hub {
	h := &hub{svc: s, b: b, stats: &s.delivery, stopCh: make(chan struct{})}
	h.fan = fanout.New(shards, shardQueueDepth, viewerQueueDepth, viewerMaxDrops,
		fanout.Hooks[*rtmp.ServerConn, viewer, shardMsg, outMsg]{
			Share:   func(d shardMsg) { d.sp.Retain() },
			Done:    h.done,
			Admit:   h.admit,
			Send:    sendMedia,
			Discard: outMsg.release,
			Evicted: func(*rtmp.ServerConn) { h.stats.hopeless.Add(1) },
		})
	return h
}

// startBroadcaster dials the regional ingest server and begins pushing the
// synthetic stream in real time.
func (h *hub) startBroadcaster() error {
	ing, ok := h.svc.ingest[h.b.Region]
	if !ok {
		return fmt.Errorf("service: region %q has no ingest", h.b.Region)
	}
	nc, err := net.Dial("tcp", ing.srv.Addr().String())
	if err != nil {
		return err
	}
	cli, err := rtmp.NewClientConn(nc, "live", "rtmp://vidman-"+h.b.Region+".periscope.tv:80/live")
	if err != nil {
		nc.Close()
		return err
	}
	if err := cli.Publish(h.b.ID); err != nil {
		cli.Close()
		return err
	}
	h.pub = cli

	rng := rand.New(rand.NewSource(h.b.Seed))
	cfg := media.RandomEncoderConfig(rng)
	cfg.EmitPayload = true
	cfg.SEIPeriod = 500 * time.Millisecond
	enc := media.NewEncoder(cfg, time.Now())
	h.enc = enc

	go h.produce(cli, enc, rng)
	return nil
}

// produce runs the broadcaster: FLV sequence headers, then paced AV tags.
func (h *hub) produce(cli *rtmp.Client, enc *media.Encoder, rng *rand.Rand) {
	defer cli.Close()
	// Sequence headers first.
	acfg := aac.DefaultConfig()
	if rng.Intn(2) == 1 {
		acfg.Bitrate = 64000 // paper: ~32 or 64 kbps VBR
	}
	videoSeq := flv.VideoTagData{
		FrameType:  flv.VideoKeyFrame,
		PacketType: flv.AVCSeqHeader,
		Data:       flv.DecoderConfig(enc.SPS(), enc.PPS()),
	}.Marshal()
	audioSeq := flv.AudioTagData{PacketType: flv.AACSeqHeader, Data: acfg.AudioSpecificConfig()}.Marshal()
	h.seqHdrs.Store(&seqHeaders{video: videoSeq, audio: audioSeq})
	if err := cli.WriteVideo(0, videoSeq); err != nil {
		return
	}
	if err := cli.WriteAudio(0, audioSeq); err != nil {
		return
	}

	sizer := aac.NewFrameSizer(acfg, rng.Int63())
	start := time.Now()
	var audioPTS time.Duration
	// tag is rebuilt for every media message: WriteVideo/WriteAudio write
	// it out before they return and keep nothing.
	var tag []byte
	for {
		select {
		case <-h.stopCh:
			return
		default:
		}
		f := enc.NextFrame()
		// Pace production to real time.
		if sleep := time.Until(start.Add(f.PTS)); sleep > 0 {
			select {
			case <-h.stopCh:
				return
			case <-time.After(sleep):
			}
		}
		if !f.Dropped {
			tag = appendVideoTag(tag[:0], f)
			if err := cli.WriteVideo(uint32(f.DTS.Milliseconds()), tag); err != nil {
				return
			}
		}
		// Interleave audio frames up to the video position.
		for audioPTS <= f.PTS {
			tag = flv.AudioTagData{PacketType: flv.AACRaw, Data: sizer.NextFrame()}.Append(tag[:0])
			if err := cli.WriteAudio(uint32(audioPTS.Milliseconds()), tag); err != nil {
				return
			}
			audioPTS += aac.FrameDuration
		}
	}
}

// appendVideoTag appends the FLV video tag of one encoded frame to dst:
// the tag header, then the NAL units escaped straight into AVCC framing.
func appendVideoTag(dst []byte, f media.Frame) []byte {
	frameType := flv.VideoInterFrame
	if f.Keyframe {
		frameType = flv.VideoKeyFrame
	}
	dst = flv.VideoTagData{
		FrameType:       frameType,
		PacketType:      flv.AVCNALU,
		CompositionTime: int32((f.PTS - f.DTS).Milliseconds()),
	}.Append(dst)
	return avc.AppendAVCC(dst, f.NALs)
}

// addViewer attaches an RTMP viewer; it receives the sequence headers
// immediately and media from the next keyframe. A hub that has stopped
// refuses it.
func (h *hub) addViewer(c *rtmp.ServerConn) {
	if !h.fan.Attach(c, viewer{}, h.seqHdrs.Load().msgs()...) {
		c.Close()
	}
}

// ViewerCount reports attached RTMP viewers.
func (h *hub) ViewerCount() int { return h.fan.Len() }

// cacheSeqHeader snapshots a sequence-header tag for late joiners. The
// pooled payload will be recycled after fan-out, so the cache keeps its
// own copy. Only the publisher's read goroutine updates the snapshot.
func (h *hub) cacheSeqHeader(typeID uint8, payload []byte) {
	hd := &seqHeaders{}
	if cur := h.seqHdrs.Load(); cur != nil {
		*hd = *cur
	}
	cp := append([]byte(nil), payload...)
	if typeID == rtmp.TypeVideo {
		hd.video = cp
	} else {
		hd.audio = cp
	}
	h.seqHdrs.Store(hd)
}

// onMedia routes one publisher message: parse the FLV tag header once,
// wrap the pooled payload in a refcount, publish a descriptor to every
// shard and the HLS feed, then drop the caller's reference. The payload
// returns to the chunk-layer pool when the last viewer queue drains.
func (h *hub) onMedia(msg rtmp.Message) {
	isVideoKey := false
	var vt flv.VideoTagData
	switch msg.TypeID {
	case rtmp.TypeVideo:
		if parsed, err := flv.ParseVideoTagData(msg.Payload); err == nil {
			vt = parsed
			if vt.PacketType == flv.AVCSeqHeader {
				h.cacheSeqHeader(rtmp.TypeVideo, msg.Payload)
			}
			isVideoKey = vt.FrameType == flv.VideoKeyFrame && vt.PacketType == flv.AVCNALU
		}
	case rtmp.TypeAudio:
		if parsed, err := flv.ParseAudioTagData(msg.Payload); err == nil && parsed.PacketType == flv.AACSeqHeader {
			h.cacheSeqHeader(rtmp.TypeAudio, msg.Payload)
		}
	}

	sp := rtmp.SharePayload(msg.Payload)
	h.fan.Publish(shardMsg{typeID: msg.TypeID, timestamp: msg.Timestamp, isVideoKey: isVideoKey, sp: sp})
	// enableHLS publishes the feed before the segmenter, so a visible
	// segmenter implies a visible feed.
	if h.seg.Load() != nil {
		sp.Retain()
		h.feed.Load().publish(feedMsg{typeID: msg.TypeID, timestamp: msg.Timestamp, vt: vt, sp: sp})
	}
	sp.Release()
}

// maybeWarmAfterFirstSegment re-warms the cluster anchors once the
// segmenter has cut its first segment. The warm-up scheduled at promotion
// fetched an empty playlist, so the prefetch that actually populates the
// anchors — and lets their cluster followers peer-fill instead of hitting
// the origin — has to run again when there is a window to prefetch.
func (h *hub) maybeWarmAfterFirstSegment(seg *hls.Segmenter) {
	if h.warmedWindow.Load() || seg.SegmentCount() == 0 || !h.warmedWindow.CompareAndSwap(false, true) {
		return
	}
	for _, pop := range h.svc.cdn {
		if pop.isClusterAnchor() {
			pop.warm(h.b.ID)
		}
	}
}

// feedSegmenter repackages FLV tags into the MPEG-TS segmenter — the
// "transcode, repackage and deliver to Fastly" step the paper hypothesises
// for popular broadcasts. The segmenter copies into TS packets before
// returning, so the caller may release the payload afterwards. annexB is
// the caller's scratch buffer for a video frame's Annex B form; it is
// returned, possibly grown, for the next call.
func feedSegmenter(seg *hls.Segmenter, annexB []byte, typeID uint8, timestamp uint32, payload []byte, vt flv.VideoTagData) []byte {
	now := time.Now()
	switch typeID {
	case rtmp.TypeVideo:
		if vt.PacketType != flv.AVCNALU {
			break
		}
		var err error
		if annexB, err = avc.AppendAnnexBFromAVCC(annexB[:0], vt.Data); err != nil {
			break
		}
		dts := time.Duration(timestamp) * time.Millisecond
		pts := dts + time.Duration(vt.CompositionTime)*time.Millisecond
		seg.WriteVideo(now, pts, dts, vt.FrameType == flv.VideoKeyFrame, annexB)
	case rtmp.TypeAudio:
		at, err := flv.ParseAudioTagData(payload)
		if err != nil || at.PacketType != flv.AACRaw {
			break
		}
		pts := time.Duration(timestamp) * time.Millisecond
		seg.WriteAudio(now, pts, at.Data)
	}
	return annexB
}

// enableHLS attaches a segmenter (with its feed worker), mounts it at the
// CDN origin tier, and registers an edge replica with every POP
// (idempotent).
func (h *hub) enableHLS() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seg.Load() != nil {
		return nil
	}
	if h.stopped {
		return fmt.Errorf("service: broadcast %s ended", h.b.ID)
	}
	seg := hls.NewSegmenter(h.svc.cfg.SegmentTarget, hls.DefaultWindowSize)
	h.svc.origin.register(h.b.ID, seg)
	for _, pop := range h.svc.cdn {
		pop.register(h.b.ID, seg)
		// Promotion warm-up: cluster anchors prefetch the live window in
		// the background so the first viewer does not eat a cold-cache miss
		// storm. Followers stay cold on purpose — their first fill probes
		// the warm anchor peer, keeping promotion origin egress at
		// O(clusters) instead of every POP warming from origin at once.
		if pop.isClusterAnchor() {
			pop.warm(h.b.ID)
		}
	}
	f := &hlsFeed{h: h, ch: make(chan feedMsg, feedQueueDepth), quit: make(chan struct{})}
	// Publish the feed before the segmenter: onMedia loads them in the
	// opposite order, so a visible segmenter implies a visible feed.
	h.feed.Store(f)
	go f.run()
	h.seg.Store(seg)
	return nil
}

// Segmenter exposes the HLS pipeline (tests and analysis).
func (h *hub) Segmenter() *hls.Segmenter {
	return h.seg.Load()
}

// stop tears the pipeline down: publisher, fan-out (stopping and draining
// every viewer), HLS feed, segmenter. The chat room is NOT closed here —
// Service.EndBroadcast closes it after the CDN linger, so members can
// keep chatting while HLS viewers drain the final window.
func (h *hub) stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	close(h.stopCh)
	h.mu.Unlock()
	h.fan.Stop()
	if f := h.feed.Load(); f != nil {
		close(f.quit)
	}
	if seg := h.seg.Load(); seg != nil {
		seg.Finish(time.Now())
	}
}
