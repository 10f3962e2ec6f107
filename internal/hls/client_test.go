package hls

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/avc"
	"periscope/internal/media"
	"periscope/internal/mpegts"
)

// liveSegmenter feeds seg from a goroutine, one frame every 3 ms of wall
// time (media runs about 10× faster), until the returned finish is
// called; finish ends the stream with ENDLIST and waits for the feeder.
func liveSegmenter(seg *Segmenter) (finish func()) {
	cfg := media.DefaultEncoderConfig()
	cfg.DropProb = 0
	cfg.IDRPeriod = 12
	enc := media.NewEncoder(cfg, time.Now())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				seg.Finish(time.Now())
				return
			default:
			}
			f := enc.NextFrame()
			seg.WriteVideo(time.Now(), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs))
			time.Sleep(3 * time.Millisecond)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
}

// fixed resolves to one base URL, live.
func fixed(base string) func() (string, bool, error) {
	return func() (string, bool, error) { return base, false, nil }
}

// TestClientResolvesPastAClosedEdge: an edge that closes mid-session sends
// the viewer back to Resolve, which names a second server. The viewer
// keeps delivering from it to the stream's end, in sequence order and
// with no sequence twice.
func TestClientResolvesPastAClosedEdge(t *testing.T) {
	seg := NewSegmenter(500*time.Millisecond, 4)
	finish := liveSegmenter(seg)
	defer finish()
	var served [2]atomic.Int64 // segment requests per edge
	edge := func(i int) *httptest.Server {
		origin := &Origin{Seg: seg}
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, ".ts") {
				served[i].Add(1)
			}
			origin.ServeHTTP(w, r)
		}))
	}
	first, second := edge(0), edge(1)
	defer first.Close()
	defer second.Close()

	var resolves atomic.Int32
	viewer := Client{
		Resolve: func() (string, bool, error) {
			if resolves.Add(1) == 1 {
				return first.URL, false, nil
			}
			return second.URL, false, nil
		},
		PollInterval: 10 * time.Millisecond,
	}
	var seqs []int
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := viewer.Run(ctx, func(fs FetchedSegment) {
		seqs = append(seqs, fs.Sequence)
		switch len(seqs) {
		case 2:
			first.Close()
		case 5:
			finish()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatalf("viewer ran to its deadline after %d segments; want it to drain ENDLIST from the second edge", len(seqs))
	}
	if n := resolves.Load(); n < 2 {
		t.Errorf("Resolve called %d times; the closed edge must send the viewer back to it", n)
	}
	if served[0].Load() < 2 || served[1].Load() == 0 {
		t.Errorf("segments served: first edge %d, second %d; want ≥ 2 and > 0", served[0].Load(), served[1].Load())
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence %d delivered after %d: %v", seqs[i], seqs[i-1], seqs)
		}
	}
}

// TestClientRefusesUnframedSegments: the viewer reads a segment only whole
// and under a Content-Length it can hold. A 200 with no length, or with
// one past maxBody, fails the fetch and sends the viewer back to Resolve,
// where reading the body to its end would have delivered the segment (the
// framed control case).
func TestClientRefusesUnframedSegments(t *testing.T) {
	src := feedSegmenter(t, 6*time.Second, time.Second)
	pl := src.Playlist()
	stored, ok := src.Segment(pl.Segments[len(pl.Segments)-1].Sequence)
	if !ok {
		t.Fatal("fixture: newest listed segment not held")
	}
	body, playlist := stored.Data, pl.Marshal()
	for _, tc := range []struct {
		name    string
		want    int // segments delivered
		segment http.HandlerFunc
	}{
		{"framed", 1, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		}},
		{"no Content-Length", 0, func(w http.ResponseWriter, r *http.Request) {
			w.Write(body[:100])
			w.(http.Flusher).Flush()
			w.Write(body[100:])
		}},
		{"Content-Length past maxBody", 0, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(maxBody+1))
			w.Write(body)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, ".m3u8") {
					w.Header().Set("Content-Length", strconv.Itoa(len(playlist)))
					w.Write(playlist)
					return
				}
				tc.segment(w, r)
			}))
			defer srv.Close()
			var resolves atomic.Int32
			viewer := Client{
				Resolve: func() (string, bool, error) {
					resolves.Add(1)
					return srv.URL, false, nil
				},
				PollInterval: 10 * time.Millisecond,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			got := 0
			if err := viewer.Run(ctx, func(FetchedSegment) { got++ }); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("delivered %d segments, want %d", got, tc.want)
			}
			if n := resolves.Load(); tc.want == 0 && n < 2 {
				t.Errorf("Resolve called %d times; a refused fetch must send the viewer back to it", n)
			}
		})
	}
}

// TestClientStampsCaptureFromSEI: a chunk's capture end is the wall time
// of its last frame, read from the segment's timestamp SEI. The stream
// was captured in 1970, so it ends before the session began, and before
// the segment arrived; a viewer that used arrival as capture would
// report zero delivery latency.
func TestClientStampsCaptureFromSEI(t *testing.T) {
	// At 10 s the trailing segment, the one the viewer joins at, holds
	// one of the SEIs stamped about once a second.
	seg := feedSegmenter(t, 10*time.Second, time.Second)
	srv := httptest.NewServer(&Origin{Seg: seg})
	defer srv.Close()
	viewer := Client{Resolve: fixed(srv.URL), PollInterval: 10 * time.Millisecond}
	var got []FetchedSegment
	if err := viewer.Run(context.Background(), func(fs FetchedSegment) { got = append(got, fs) }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no segment delivered")
	}
	for _, fs := range got {
		if !carriesTimestampSEI(t, fs.Data) {
			t.Fatalf("fixture: segment %d carries no timestamp SEI", fs.Sequence)
		}
		ch := fs.Chunk
		if ch.CaptureEnd >= 0 || ch.CaptureEnd >= ch.Arrival {
			t.Errorf("segment %d: capture end %v, arrival %v; want capture before the session and the arrival", fs.Sequence, ch.CaptureEnd, ch.Arrival)
		}
		if ch.MediaEnd <= ch.MediaStart {
			t.Errorf("segment %d: media span [%v, %v]", fs.Sequence, ch.MediaStart, ch.MediaEnd)
		}
	}
}

func carriesTimestampSEI(t *testing.T, data []byte) bool {
	t.Helper()
	units, err := mpegts.DemuxAll(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if nals, err := avc.ParseAnnexB(u.Data); u.PID == mpegts.PIDVideo && err == nil {
			if _, ok := avc.FindTimestamp(nals); ok {
				return true
			}
		}
	}
	return false
}
