package hls

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"periscope/internal/avc"
	"periscope/internal/media"
	"periscope/internal/mpegts"
)

func TestPlaylistRoundTrip(t *testing.T) {
	p := MediaPlaylist{
		TargetDuration: 4,
		MediaSequence:  12,
		Segments: []Segment{
			{URI: "seg000012.ts", Duration: 3.6},
			{URI: "seg000013.ts", Duration: 3.6},
			{URI: "seg000014.ts", Duration: 4.2},
		},
	}
	got, err := ParseMediaPlaylist(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetDuration != 4 || got.MediaSequence != 12 || len(got.Segments) != 3 {
		t.Fatalf("got %+v", got)
	}
	if got.Segments[2].Duration != 4.2 || got.Segments[2].Sequence != 14 {
		t.Errorf("segment 2 = %+v", got.Segments[2])
	}
	if got.Ended {
		t.Error("live playlist must not be ended")
	}
}

func TestPlaylistEnded(t *testing.T) {
	p := MediaPlaylist{TargetDuration: 4, Ended: true,
		Segments: []Segment{{URI: "seg000000.ts", Duration: 3.0}}}
	got, err := ParseMediaPlaylist(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ended {
		t.Error("ENDLIST lost")
	}
}

func TestPlaylistBadHeader(t *testing.T) {
	if _, err := ParseMediaPlaylist([]byte("nope\n")); err == nil {
		t.Error("want error for missing #EXTM3U")
	}
}

func TestPlaylistURIWithoutEXTINF(t *testing.T) {
	if _, err := ParseMediaPlaylist([]byte("#EXTM3U\nseg.ts\n")); err == nil {
		t.Error("want error for URI without EXTINF")
	}
}

// TestSegmentName: the parser accepts exactly the names SegmentName mints
// — "seg", six or more ASCII digits, ".ts" — and nothing the old Sscanf
// let through (signs, spaces, short or trailing forms).
func TestSegmentName(t *testing.T) {
	for _, tc := range []struct {
		seq  int
		name string
	}{
		{0, "seg000000.ts"},
		{42, "seg000042.ts"},
		{999_999, "seg999999.ts"},
		{1_000_000, "seg1000000.ts"},
		{1_234_567, "seg1234567.ts"},
	} {
		if got := SegmentName(tc.seq); got != tc.name {
			t.Errorf("SegmentName(%d) = %q, want %q", tc.seq, got, tc.name)
		}
		if got, err := ParseSegmentName(tc.name); err != nil || got != tc.seq {
			t.Errorf("ParseSegmentName(%q) = %d, %v; want %d", tc.name, got, err, tc.seq)
		}
	}
	for _, bad := range []string{
		"bogus", "", "seg.ts", "seg-00001.ts", "seg+00001.ts", "seg 1.ts", "seg1.ts", "seg00001.ts",
		"seg000042.tsx", "seg000042.ts/../x", "seg000042", "xseg000042.ts", "seg00004a.ts",
		"seg0000000000000000000042.ts", // would overflow
	} {
		if seq, err := ParseSegmentName(bad); err == nil {
			t.Errorf("ParseSegmentName(%q) = %d, want an error", bad, seq)
		}
	}
}

// feedSegmenter runs a synthetic encoder into the segmenter for the given
// stream duration and returns the segmenter.
func feedSegmenter(t *testing.T, streamDur time.Duration, target time.Duration) *Segmenter {
	t.Helper()
	seg := NewSegmenter(target, 4)
	cfg := media.DefaultEncoderConfig()
	cfg.DropProb = 0
	enc := media.NewEncoder(cfg, time.Unix(1000, 0))
	interval := enc.FrameInterval()
	now := time.Unix(2000, 0)
	for pts := time.Duration(0); pts < streamDur; pts += interval {
		f := enc.NextFrame()
		seg.WriteVideo(now.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs))
	}
	seg.Finish(now.Add(streamDur))
	return seg
}

func TestSegmenterCutsNearTarget(t *testing.T) {
	seg := feedSegmenter(t, 30*time.Second, DefaultSegmentTarget)
	if seg.SegmentCount() < 5 {
		t.Fatalf("only %d segments from 30s", seg.SegmentCount())
	}
	pl := seg.Playlist()
	if !pl.Ended {
		t.Error("finished stream must have ENDLIST")
	}
	// All but the last segment should be within [3, 6] seconds as in §5.2.
	for i, s := range pl.Segments {
		if i == len(pl.Segments)-1 {
			continue
		}
		if s.Duration < 2.9 || s.Duration > 6.1 {
			t.Errorf("segment %d duration %.2f outside [3,6]", i, s.Duration)
		}
	}
}

func TestSegmenterWindowSlides(t *testing.T) {
	seg := NewSegmenter(DefaultSegmentTarget, 4)
	feedSegmenterFor(t, seg, 60*time.Second)
	// Segment answers exactly the newest MaxKeep sequences, during the
	// stream and after Finish's trailing cut.
	checkHorizon := func(when string) {
		t.Helper()
		newest := seg.SegmentCount() - 1
		if newest < seg.MaxKeep() {
			t.Fatalf("%s: only %d segments cut", when, newest+1)
		}
		for seq := 0; seq <= newest+1; seq++ {
			got, ok := seg.Segment(seq)
			if want := seq > newest-seg.MaxKeep() && seq <= newest; ok != want || ok && got.Sequence != seq {
				t.Errorf("%s: Segment(%d) = %d, %v; want present %v (newest %d)", when, seq, got.Sequence, ok, want, newest)
			}
		}
	}
	checkHorizon("during the stream")
	seg.Finish(time.Unix(3000, 0))
	checkHorizon("after Finish")
	// An unbounded window keeps every segment, as the §5.2 corpus needs.
	all := NewSegmenter(DefaultSegmentTarget, 1<<30)
	feedSegmenterFor(t, all, 60*time.Second)
	all.Finish(time.Unix(3000, 0))
	for seq := 0; seq < all.SegmentCount(); seq++ {
		if _, ok := all.Segment(seq); !ok {
			t.Errorf("unbounded window: segment %d of %d missing", seq, all.SegmentCount())
		}
	}
	pl := seg.Playlist()
	if len(pl.Segments) > 4 {
		t.Errorf("window holds %d segments, max 4", len(pl.Segments))
	}
	if pl.MediaSequence == 0 {
		t.Error("media sequence should have advanced")
	}
}

func TestSegmentsDemux(t *testing.T) {
	seg := feedSegmenter(t, 12*time.Second, DefaultSegmentTarget)
	found := false
	for i := 0; i < seg.SegmentCount(); i++ {
		s, ok := seg.Segment(i)
		if !ok {
			continue
		}
		found = true
		units, err := mpegts.DemuxAll(s.Data)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		// First video unit of each segment must be a keyframe (random access).
		for _, u := range units {
			if u.PID == mpegts.PIDVideo {
				if !u.Keyframe {
					t.Errorf("segment %d does not start with a keyframe", i)
				}
				break
			}
		}
	}
	if !found {
		t.Fatal("no fetchable segments")
	}
}

func TestOriginAndClientLive(t *testing.T) {
	seg := NewSegmenter(500*time.Millisecond, 4)
	srv := httptest.NewServer(&Origin{Seg: seg})
	defer srv.Close()
	finish := liveSegmenter(seg)
	defer finish()

	var fetched []FetchedSegment
	viewer := Client{Resolve: fixed(srv.URL), PollInterval: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	// Let the viewer run for a while against the live stream, then end it.
	time.AfterFunc(3*time.Second, finish)
	if err := viewer.Run(ctx, func(fs FetchedSegment) { fetched = append(fetched, fs) }); err != nil {
		t.Fatal(err)
	}
	if len(fetched) == 0 {
		t.Fatal("no segments delivered")
	}
	for i := 1; i < len(fetched); i++ {
		if fetched[i].Sequence != fetched[i-1].Sequence+1 {
			t.Errorf("segments out of order: %d after %d", fetched[i].Sequence, fetched[i-1].Sequence)
		}
	}
	for _, fs := range fetched {
		if _, err := mpegts.DemuxAll(fs.Data); err != nil {
			t.Errorf("segment %d corrupt: %v", fs.Sequence, err)
		}
	}
}

// TestOriginServesEndlistAfterFinish covers the finished-broadcast
// regression: once the segmenter is closed, the origin's playlist must
// carry #EXT-X-ENDLIST (with a final-cacheable header) so a polling viewer
// terminates instead of spinning forever.
func TestOriginServesEndlistAfterFinish(t *testing.T) {
	seg := feedSegmenter(t, 8*time.Second, DefaultSegmentTarget)
	if !seg.Ended() {
		t.Fatal("Finish did not mark the segmenter ended")
	}
	srv := httptest.NewServer(&Origin{Seg: seg})
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/playlist.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ParseMediaPlaylist(body)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Ended {
		t.Fatal("finished broadcast's playlist lacks ENDLIST")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("final playlist Cache-Control = %q, want immutable", cc)
	}

	// A viewer polling the completed broadcast returns promptly.
	viewer := Client{Resolve: fixed(srv.URL), PollInterval: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := viewer.Run(ctx, func(FetchedSegment) {}); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil || time.Since(start) > 4*time.Second {
		t.Error("client did not terminate on the ended playlist")
	}
}

func TestMaxSegmentDuration(t *testing.T) {
	p := MediaPlaylist{Segments: []Segment{{Duration: 3.6}, {Duration: 5.9}, {Duration: 3.0}}}
	if d := p.MaxSegmentDuration(); math.Abs(d-5.9) > 1e-9 {
		t.Errorf("max = %v", d)
	}
}

func TestPlaylistMarshalStable(t *testing.T) {
	p := MediaPlaylist{TargetDuration: 4, Segments: []Segment{{URI: "seg000000.ts", Duration: 3.6}}}
	a := p.Marshal()
	b := p.Marshal()
	if !bytes.Equal(a, b) {
		t.Error("marshal not deterministic")
	}
}
