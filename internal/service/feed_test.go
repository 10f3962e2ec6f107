package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"periscope/internal/aac"
	"periscope/internal/avc"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/rtmp"
)

// feedTag is one media message as the broadcaster sends it and the feed
// worker receives it.
type feedTag struct {
	typeID    uint8
	timestamp uint32
	payload   []byte
	vt        flv.VideoTagData
	frame     media.Frame // the encoder's frame, for video
	adts      []byte      // the encoder's frame, for audio
}

// broadcastTags renders dur of a seeded synthetic broadcast into the tags
// hub.produce sends: video tags built as the broadcaster builds them, with
// audio interleaved up to each frame.
func broadcastTags(t testing.TB, dur time.Duration) []feedTag {
	cfg := media.DefaultEncoderConfig()
	cfg.SEIPeriod = 500 * time.Millisecond
	enc := media.NewEncoder(cfg, time.Unix(1000, 0))
	sizer := aac.NewFrameSizer(aac.DefaultConfig(), 7)
	var tags []feedTag
	var audioPTS time.Duration
	for f := enc.NextFrame(); f.PTS < dur; f = enc.NextFrame() {
		if !f.Dropped {
			tag := appendVideoTag(nil, f)
			vt, err := flv.ParseVideoTagData(tag)
			if err != nil {
				t.Fatal(err)
			}
			tags = append(tags, feedTag{typeID: rtmp.TypeVideo, timestamp: uint32(f.DTS.Milliseconds()), payload: tag, vt: vt, frame: f})
		}
		for ; audioPTS <= f.PTS; audioPTS += aac.FrameDuration {
			adts := sizer.NextFrame()
			tag := flv.AudioTagData{PacketType: flv.AACRaw, Data: adts}.Marshal()
			tags = append(tags, feedTag{typeID: rtmp.TypeAudio, timestamp: uint32(audioPTS.Milliseconds()), payload: tag, adts: adts})
		}
	}
	return tags
}

// finishedSegments ends seg and returns every segment it cut, in order.
func finishedSegments(t testing.TB, seg *hls.Segmenter) [][]byte {
	seg.Finish(time.Unix(3000, 0))
	var out [][]byte
	for seq := 0; seq < seg.SegmentCount(); seq++ {
		s, ok := seg.Segment(seq)
		if !ok {
			t.Fatalf("segment %d expired", seq)
		}
		out = append(out, s.Data)
	}
	return out
}

// TestFeedSegmentsAreUnchanged: what the feed worker makes of the
// broadcaster's tags — AVCC escaped straight into the tag, converted to
// Annex B in one pass, muxed into a buffer sized from the last segment —
// is byte for byte what the two-pass path makes of the encoder's frames
// (MarshalAnnexB into the segmenter), and the same segments as before the
// one-pass conversion, whose digest is pinned here.
func TestFeedSegmentsAreUnchanged(t *testing.T) {
	const window = 64 // keeps every segment of the stream fetchable
	tags := broadcastTags(t, 30*time.Second)
	fed := hls.NewSegmenter(hls.DefaultSegmentTarget, window)
	direct := hls.NewSegmenter(hls.DefaultSegmentTarget, window)
	var annexB []byte
	for _, tg := range tags {
		annexB = feedSegmenter(fed, annexB, tg.typeID, tg.timestamp, tg.payload, tg.vt)
		// The timestamps are the tag's: milliseconds, as FLV carries them.
		dts := time.Duration(tg.timestamp) * time.Millisecond
		if tg.typeID == rtmp.TypeVideo {
			pts := dts + time.Duration(tg.vt.CompositionTime)*time.Millisecond
			direct.WriteVideo(time.Time{}, pts, dts, tg.frame.Keyframe, avc.MarshalAnnexB(tg.frame.NALs))
		} else {
			direct.WriteAudio(time.Time{}, dts, tg.adts)
		}
	}
	got, want := finishedSegments(t, fed), finishedSegments(t, direct)
	if len(got) < 6 || len(got) != len(want) {
		t.Fatalf("feed cut %d segments, the direct path %d", len(got), len(want))
	}
	digest := sha256.New()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("segment %d: %d bytes fed, %d direct, contents differ", i, len(got[i]), len(want[i]))
		}
		digest.Write(got[i])
	}
	const pinned = "4324d7f38ac4f86df0f2b0ca349c1c4ec7ef3fdfd1bc771c3afb6090ff680037"
	if sum := fmt.Sprintf("%x", digest.Sum(nil)); sum != pinned {
		t.Errorf("segments digest %s, want %s", sum, pinned)
	}
}

// TestFeedAllocatesNothingPerFrame: between cuts, a video frame costs the
// broadcaster's tag build and the feed worker no allocation — the tag and
// the Annex B scratch are reused, and the muxer's buffer was sized from
// the segment before.
func TestFeedAllocatesNothingPerFrame(t *testing.T) {
	var key, inter *feedTag
	tags := broadcastTags(t, 2*time.Second)
	for i := range tags {
		switch tg := &tags[i]; {
		case tg.typeID != rtmp.TypeVideo:
		case tg.frame.Keyframe && key == nil:
			key = tg
		case !tg.frame.Keyframe && inter == nil:
			inter = tg
		}
	}
	seg := hls.NewSegmenter(time.Second, hls.DefaultWindowSize)
	var annexB []byte
	ts := uint32(0)
	feed := func(tg *feedTag) {
		ts += 40
		annexB = feedSegmenter(seg, annexB, rtmp.TypeVideo, ts, tg.payload, tg.vt)
	}
	// One segment of 200 inter frames, cut at the next keyframe.
	feed(key)
	for range 200 {
		feed(inter)
	}
	feed(key)
	if seg.SegmentCount() != 1 {
		t.Fatalf("%d segments cut, want 1", seg.SegmentCount())
	}

	if n := testing.AllocsPerRun(100, func() { feed(inter) }); n != 0 {
		t.Errorf("feeding one frame allocated %v times, want 0", n)
	}
	if seg.SegmentCount() != 1 {
		t.Fatal("the measured frames cut a segment")
	}
	var tag []byte
	if n := testing.AllocsPerRun(100, func() { tag = appendVideoTag(tag[:0], key.frame) }); n != 0 {
		t.Errorf("building one video tag allocated %v times, want 0", n)
	}
}

// BenchmarkFeedSegmenter is one FLV video tag into the segmenter, as the
// feed worker hands it over: the AVCC to Annex B conversion and the TS
// mux, with a cut at every keyframe past the target.
func BenchmarkFeedSegmenter(b *testing.B) {
	var video []feedTag
	for _, tg := range broadcastTags(b, 20*time.Second) {
		if tg.typeID == rtmp.TypeVideo {
			video = append(video, tg)
		}
	}
	span := video[len(video)-1].timestamp + 1000 // keeps timestamps rising across laps
	seg := hls.NewSegmenter(hls.DefaultSegmentTarget, hls.DefaultWindowSize)
	var annexB []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := &video[i%len(video)]
		ts := tg.timestamp + uint32(i/len(video))*span
		annexB = feedSegmenter(seg, annexB, rtmp.TypeVideo, ts, tg.payload, tg.vt)
	}
}
