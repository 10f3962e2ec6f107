package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/chat"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/mpegts"
	"periscope/internal/rtmp"
	"periscope/internal/websocket"
)

// layerStreamSeconds is the length of the synthetic stream the layer pass
// feeds through each layer.
const layerStreamSeconds = 30

// layerPass times each layer's public functions on one seeded media stream,
// in isolation and on one goroutine: the per-layer cost floor under the
// end-to-end numbers. It runs after the traced window, never during it.
func layerPass(out map[string]float64, seed int64) error {
	cfg := media.DefaultEncoderConfig()
	cfg.Seed = seed
	cfg.SEIPeriod = 500 * time.Millisecond
	cfg.DropProb = 0
	enc := media.NewEncoder(cfg, time.Unix(1_460_000_000, 0))
	nFrames := int(layerStreamSeconds * cfg.FrameRate)

	// media: encode.
	frames := make([]media.Frame, 0, nFrames)
	t0 := time.Now()
	for i := 0; i < nFrames; i++ {
		frames = append(frames, enc.NextFrame())
	}
	out["media.encode_ns_per_frame"] = perItem(t0, nFrames)

	// flv: tag marshal, as the broadcaster does per frame.
	tags := make([][]byte, 0, nFrames)
	t0 = time.Now()
	for _, f := range frames {
		ft := flv.VideoInterFrame
		if f.Keyframe {
			ft = flv.VideoKeyFrame
		}
		tags = append(tags, flv.VideoTagData{
			FrameType:       ft,
			PacketType:      flv.AVCNALU,
			CompositionTime: int32((f.PTS - f.DTS).Milliseconds()),
			Data:            avc.MarshalAVCC(f.NALs),
		}.Marshal())
	}
	out["flv.tag_marshal_ns"] = perItem(t0, nFrames)

	// rtmp: chunk write, then chunk read of the same bytes.
	var wire bytes.Buffer
	var tagBytes int
	cw := rtmp.NewChunkWriter(&wire)
	t0 = time.Now()
	for i, tag := range tags {
		if err := cw.WriteMessage(7, rtmp.Message{TypeID: rtmp.TypeVideo, Timestamp: uint32(frames[i].DTS.Milliseconds()), Payload: tag}); err != nil {
			return fmt.Errorf("rtmp chunk write: %w", err)
		}
		tagBytes += len(tag)
	}
	out["rtmp.chunk_write_MBps"] = mbps(t0, tagBytes)
	cr := rtmp.NewChunkReader(&wire)
	t0 = time.Now()
	for range tags {
		msg, err := cr.ReadMessage()
		if err != nil {
			return fmt.Errorf("rtmp chunk read: %w", err)
		}
		rtmp.RecycleMessagePayload(msg.Payload)
	}
	out["rtmp.chunk_read_MBps"] = mbps(t0, tagBytes)

	// mpegts: mux alone, then through the segmenter (mux + cut + window).
	annexB := make([][]byte, nFrames)
	for i, f := range frames {
		annexB[i] = avc.MarshalAnnexB(f.NALs)
	}
	mux := mpegts.NewMuxer()
	t0 = time.Now()
	for i, f := range frames {
		mux.WriteVideo(f.PTS, f.DTS, f.Keyframe, annexB[i])
	}
	out["mpegts.mux_MBps"] = mbps(t0, mux.Len())
	seg := hls.NewSegmenter(hls.DefaultSegmentTarget, hls.DefaultWindowSize)
	wall := time.Unix(1_460_000_000, 0)
	t0 = time.Now()
	for i, f := range frames {
		seg.WriteVideo(wall.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, annexB[i])
	}
	out["hls.segmenter_write_ns_per_frame"] = perItem(t0, nFrames)
	pl := seg.Playlist()
	if len(pl.Segments) == 0 {
		return errors.New("layer pass: segmenter cut no segment")
	}

	// hls: playlist marshal and parse; mpegts: demux of one whole segment.
	const plIters = 2000
	var raw []byte
	t0 = time.Now()
	for i := 0; i < plIters; i++ {
		raw = seg.Playlist().Marshal()
	}
	out["hls.playlist_marshal_ns"] = perItem(t0, plIters)
	t0 = time.Now()
	for i := 0; i < plIters; i++ {
		if _, err := hls.ParseMediaPlaylist(raw); err != nil {
			return fmt.Errorf("playlist parse: %w", err)
		}
	}
	out["hls.playlist_parse_ns"] = perItem(t0, plIters)
	stored, _ := seg.Segment(pl.Segments[0].Sequence)
	const demuxIters = 20
	t0 = time.Now()
	for i := 0; i < demuxIters; i++ {
		if _, err := mpegts.DemuxAll(stored.Data); err != nil {
			return fmt.Errorf("demux: %w", err)
		}
	}
	out["mpegts.demux_MBps"] = mbps(t0, demuxIters*len(stored.Data))

	// hls: the replica's cache-hit serve of that segment into memory.
	rep := hls.NewReplica(hls.ReplicaConfig{Source: segmenterSource{seg}, Window: seg.WindowSize(), TargetDuration: seg.Target()})
	req := httptest.NewRequest(http.MethodGet, "/hls/x/"+pl.Segments[0].URI, nil)
	sink := &discardResponse{header: http.Header{}}
	rep.ServeHTTP(sink, req) // fill once
	if sink.status != 0 && sink.status != http.StatusOK {
		return fmt.Errorf("replica serve: status %d", sink.status)
	}
	const hitIters = 2000
	t0 = time.Now()
	for i := 0; i < hitIters; i++ {
		rep.ServeHTTP(sink, req)
	}
	out["hls.replica_serve_hit_ns"] = perItem(t0, hitIters)

	// api: one limiter decision per request, over the workload's key count.
	rl := api.NewRateLimiter(1e9, 1e9)
	keys := make([]string, apiSessions)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%03d", i)
	}
	const rlIters = 200_000
	t0 = time.Now()
	for i := 0; i < rlIters; i++ {
		rl.Take(keys[i%len(keys)])
	}
	out["api.ratelimiter_take_ns"] = perItem(t0, rlIters)

	if err := chatLayerPass(out); err != nil {
		return err
	}
	return websocketLayerPass(out)
}

func perItem(t0 time.Time, n int) float64 { return float64(time.Since(t0)) / float64(n) }

func mbps(t0 time.Time, n int) float64 { return float64(n) / 1e6 / time.Since(t0).Seconds() }

// segmenterSource serves a replica's fills straight from a segmenter.
type segmenterSource struct{ seg *hls.Segmenter }

func (s segmenterSource) FetchPlaylist(context.Context) ([]byte, error) {
	return s.seg.Playlist().Marshal(), nil
}

func (s segmenterSource) FetchSegment(_ context.Context, seq int) ([]byte, error) {
	st, ok := s.seg.Segment(seq)
	if !ok {
		return nil, &hls.UpstreamError{Status: http.StatusNotFound}
	}
	return st.Data, nil
}

// discardResponse is an in-memory http.ResponseWriter that keeps nothing.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// chatLayerPass times the caller-side cost of a room broadcast at the
// chat-room workload's size, and of a heart tap.
func chatLayerPass(out map[string]float64) error {
	room := chat.NewRoom("layer-pass", chat.RoomConfig{})
	defer room.Close()
	for i := 0; i < chatMembers; i++ {
		if _, ok := room.Join(&sinkMember{}); !ok {
			return errors.New("layer pass: room refused a member")
		}
	}
	const msgs = 200 // below the shard queue depth, so the caller never blocks
	m := chat.Message{User: "layer-pass", Text: "how's the weather"}
	t0 := time.Now()
	for i := 0; i < msgs; i++ {
		room.Broadcast(m)
	}
	out["chat.broadcast_inline_ns"] = perItem(t0, msgs)
	const taps = 200_000
	t0 = time.Now()
	for i := 0; i < taps; i++ {
		room.Heart(1)
	}
	out["chat.heart_tap_ns"] = perItem(t0, taps)
	return nil
}

// websocketLayerPass times frame preparation, and one client write plus
// the read of the server's prepared-frame echo over loopback.
func websocketLayerPass(out map[string]float64) error {
	payload := []byte(`{"user":"layer-pass","text":"how's the weather","sent_unix_nano":1460000000000000000}`)
	const preps = 100_000
	t0 := time.Now()
	for i := 0; i < preps; i++ {
		websocket.PrepareMessage(websocket.OpText, payload)
	}
	out["websocket.prepare_ns"] = perItem(t0, preps)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	echoDone := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(echoDone)
		conn, err := websocket.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, data, err := conn.ReadMessage()
			if err != nil || conn.WritePrepared(websocket.PrepareMessage(op, data)) != nil {
				return
			}
		}
	})}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := websocket.Dial("ws://"+strings.TrimPrefix(ln.Addr().String(), "http://")+"/", nil)
	if err != nil {
		return err
	}
	const trips = 5000
	t0 = time.Now()
	for i := 0; i < trips; i++ {
		if err := conn.WriteMessage(websocket.OpText, payload); err != nil {
			return fmt.Errorf("websocket write: %w", err)
		}
		if _, _, err := conn.ReadMessage(); err != nil {
			return fmt.Errorf("websocket read: %w", err)
		}
	}
	out["websocket.write_read_ns"] = perItem(t0, trips)
	conn.Close()
	// The hijacked connection is not the server's to close; wait for the
	// echo handler to see the close frame and return.
	<-echoDone
	return nil
}
