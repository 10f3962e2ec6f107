package hls

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSegmentFillLandsOnce: viewers asking for a sequence while its
// prefetch lands share that one upstream fetch. An asker whose lock-free
// look missed just before the fill landed must find the segment on its
// second look, under the replica lock, instead of starting a fill of its
// own.
func TestSegmentFillLandsOnce(t *testing.T) {
	const seqs, askers = DefaultFillConcurrency, 8
	src := newFakeSource()
	var listed []int
	for seq := 0; seq < seqs; seq++ {
		src.setSegment(seq, []byte{byte(seq)})
		listed = append(listed, seq)
	}
	src.setPlaylist(livePlaylist(listed...))
	gate := make(chan struct{})
	src.gate = gate
	rep := NewReplica(ReplicaConfig{Source: src, Window: seqs})
	defer rep.Close()
	if _, _, err := rep.Playlist(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every listed sequence is being prefetched, held at the gate.
	waitUntil(t, func() bool { return src.segmentFetches.Load() == seqs })

	// A cancelled asker returns at once while the fill runs, so each one
	// asks again and again, through the fill's landing, until it hits.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for seq := 0; seq < seqs; seq++ {
		for a := 0; a < askers; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if data, err := rep.Segment(cancelled, seq); err == nil {
						if len(data) != 1 || int(data[0]) != seq {
							t.Errorf("segment %d = %v", seq, data)
						}
						return
					}
				}
			}()
		}
	}
	close(gate)
	wg.Wait()
	// A second fill, had one started, has fetched and landed by now.
	waitUntil(t, func() bool {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return len(rep.fills) == 0
	})
	for seq := 0; seq < seqs; seq++ {
		if n := src.fetchesFor(seq); n != 1 {
			t.Errorf("segment %d fetched upstream %d times, want once", seq, n)
		}
	}
}

// TestReplicaReadsAgainstInstalls runs the replica's lock-free reads —
// Segment, CachedSegment, Playlist, Stats — against the watch installing
// each cut and the prefetches landing, over HTTP from a live origin: every
// read is whole, a segment is the origin's bytes, and occupancy stays
// inside the horizon.
func TestReplicaReadsAgainstInstalls(t *testing.T) {
	stream, _, rep := newHeldEdge(t, 50*time.Millisecond)
	seg := stream.seg
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
				raw, pl, err := rep.Playlist(ctx)
				if err != nil {
					continue
				}
				if len(raw) == 0 || len(pl.Segments) > seg.WindowSize() {
					t.Errorf("playlist of %d bytes lists %d segments", len(raw), len(pl.Segments))
				}
				for _, s := range pl.Segments {
					data, err := rep.Segment(ctx, s.Sequence)
					if err != nil {
						continue // expired at the origin before the fill
					}
					if o, ok := seg.Segment(s.Sequence); ok && !bytes.Equal(o.Data, data) {
						t.Errorf("segment %d: edge bytes differ from the origin's", s.Sequence)
					}
					if cached, ok := rep.CachedSegment(s.Sequence); ok && len(cached) == 0 {
						t.Errorf("cached segment %d is empty", s.Sequence)
					}
				}
				if st := rep.Stats(); st.CachedSegments > seg.MaxKeep() {
					t.Errorf("edge holds %d segments, horizon %d", st.CachedSegments, seg.MaxKeep())
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		stream.cut()
		time.Sleep(5 * time.Millisecond)
	}
	seg.Finish(time.Now())
	close(done)
	wg.Wait()
}

// TestSegmenterReadsAgainstCuts runs the origin's lock-free reads against
// WriteVideo cutting: a playlist lists consecutive sequences, a segment is
// the one asked for, and nothing at or below newest − MaxKeep, as read
// before the lookup, is ever answered.
func TestSegmenterReadsAgainstCuts(t *testing.T) {
	seg := NewSegmenter(50*time.Millisecond, 4)
	stream := newTestStream(seg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
				pl := seg.Playlist()
				for i, s := range pl.Segments {
					if s.Sequence != pl.MediaSequence+i {
						t.Errorf("playlist from %d lists %d at %d", pl.MediaSequence, s.Sequence, i)
					}
				}
				newest := seg.SegmentCount() - 1
				for seq := max(newest-seg.MaxKeep()-2, 0); seq <= newest+1; seq++ {
					got, ok := seg.Segment(seq)
					if ok && (got.Sequence != seq || len(got.Data) == 0) {
						t.Errorf("Segment(%d) = sequence %d, %d bytes", seq, got.Sequence, len(got.Data))
					}
					if ok && seq <= newest-seg.MaxKeep() {
						t.Errorf("Segment(%d) answered past the horizon (newest %d)", seq, newest)
					}
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		stream.cut()
		runtime.Gosched()
	}
	seg.Finish(time.Now())
	close(done)
	wg.Wait()
}
