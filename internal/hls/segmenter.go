package hls

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/mpegts"
)

// DefaultSegmentTarget is the segment duration the study most frequently
// observed (3.6 s in 60% of cases).
const DefaultSegmentTarget = 3600 * time.Millisecond

// DefaultWindowSize is the number of segments kept in the live playlist.
const DefaultWindowSize = 4

// StoredSegment is a finished segment held in the live window.
type StoredSegment struct {
	Sequence int
	Duration time.Duration
	Data     []byte
	// Completed is the wall-clock time the segment became available; HLS
	// delivery latency starts from here.
	Completed time.Time
}

// Segmenter packages a live elementary stream into MPEG-TS segments, cut
// at keyframe boundaries once the target duration has accumulated. It
// maintains a sliding window playlist like a live HLS origin.
type Segmenter struct {
	// mu is the ingest lock: it orders writes, cuts and publications.
	mu sync.Mutex

	target     time.Duration
	windowSize int
	maxKeep    int

	mux       *mpegts.Muxer
	curStart  time.Duration // PTS of first frame in current segment
	curEnd    time.Duration
	haveFrame bool
	ended     bool

	// pub is the origin as of the last cut: rendered once there, read by
	// every poll, fill and segment lookup without the lock.
	pub atomic.Pointer[publication]
}

// publication is one immutable state of the live origin: the segments
// still fetchable (at most maxKeep, in sequence order) and the playlist
// listing their newest windowSize. A fill request that already lists
// newest waits on next, closed by the following publication (the next
// cut, or Finish).
type publication struct {
	segs   []StoredSegment
	raw    []byte
	pl     MediaPlaylist
	newest int // highest listed sequence, -1 when none
	next   chan struct{}
}

// NewSegmenter creates a live segmenter with the given target segment
// duration and playlist window size.
func NewSegmenter(target time.Duration, windowSize int) *Segmenter {
	if target <= 0 {
		target = DefaultSegmentTarget
	}
	if windowSize <= 0 {
		windowSize = DefaultWindowSize
	}
	s := &Segmenter{
		target:     target,
		windowSize: windowSize,
		maxKeep:    windowSize + 2,
		mux:        mpegts.NewMuxer(),
	}
	s.publishLocked(nil)
	return s
}

// WriteVideo adds one video access unit (Annex B). now is the wall-clock
// time of arrival at the packager, used to stamp segment availability.
func (s *Segmenter) WriteVideo(now time.Time, pts, dts time.Duration, keyframe bool, annexB []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	// Cut before a keyframe once the target is reached.
	if s.haveFrame && keyframe && s.curEnd-s.curStart >= s.target {
		s.cutLocked(now)
	}
	if !s.haveFrame {
		s.curStart = pts
		s.haveFrame = true
	}
	if pts > s.curEnd {
		s.curEnd = pts
	}
	s.mux.WriteVideo(pts, dts, keyframe, annexB)
}

// WriteAudio adds one audio access unit (ADTS frame).
func (s *Segmenter) WriteAudio(now time.Time, pts time.Duration, adts []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.mux.WriteAudio(pts, adts)
	if pts > s.curEnd {
		s.curEnd = pts
	}
}

// cutLocked finalizes the current segment and publishes it with the
// newest maxKeep-1 segments before it.
func (s *Segmenter) cutLocked(now time.Time) {
	data := s.mux.Bytes()
	if len(data) == 0 {
		return
	}
	dur := s.curEnd - s.curStart
	if dur <= 0 {
		dur = s.target
	}
	prev := s.pub.Load()
	seg := StoredSegment{
		Sequence:  prev.newest + 1,
		Duration:  dur,
		Data:      data,
		Completed: now,
	}
	// Clipped, so the append copies: the expired segments go with the
	// previous publication instead of staying reachable from this one.
	kept := prev.segs[max(len(prev.segs)+1-s.maxKeep, 0):]
	s.haveFrame = false
	s.curStart, s.curEnd = 0, 0
	s.publishLocked(append(slices.Clip(kept), seg))
}

// Finish flushes the trailing partial segment and marks the playlist ended.
func (s *Segmenter) Finish(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.haveFrame || s.mux.Len() > 0 {
		s.cutLocked(now)
	}
	s.ended = true
	s.publishLocked(s.pub.Load().segs)
}

// Playlist returns the live playlist as of the last cut. Its Segments are
// shared with every other caller and must not be modified.
func (s *Segmenter) Playlist() MediaPlaylist { return s.pub.Load().pl }

// publishLocked renders the playlist of segs' newest windowSize and swaps
// the publication in, waking the fill requests held on the previous one.
func (s *Segmenter) publishLocked(segs []StoredSegment) {
	p := MediaPlaylist{Ended: s.ended}
	win := segs[max(len(segs)-s.windowSize, 0):]
	var maxDur float64
	for _, seg := range win {
		d := seg.Duration.Seconds()
		maxDur = math.Max(maxDur, d)
		p.Segments = append(p.Segments, Segment{
			URI:      SegmentName(seg.Sequence),
			Duration: d,
			Sequence: seg.Sequence,
		})
	}
	p.TargetDuration = int(math.Ceil(maxDur))
	if p.TargetDuration == 0 {
		p.TargetDuration = int(math.Ceil(s.target.Seconds()))
	}
	if len(win) > 0 {
		p.MediaSequence = win[0].Sequence
	}
	// Clipped: an append by a caller must not land in the shared array.
	p.Segments = slices.Clip(p.Segments)
	next := &publication{segs: segs, raw: p.Marshal(), pl: p, newest: p.MediaSequence + len(win) - 1, next: make(chan struct{})}
	if prev := s.pub.Swap(next); prev != nil {
		close(prev.next)
	}
}

// Segment returns a fetchable segment by sequence number: one of the
// newest MaxKeep cut so far.
func (s *Segmenter) Segment(seq int) (StoredSegment, bool) {
	p := s.pub.Load()
	// Sequences are consecutive, newest last: the lookup is an index.
	if i := seq - p.newest + len(p.segs) - 1; i >= 0 && i < len(p.segs) {
		return p.segs[i], true
	}
	return StoredSegment{}, false
}

// SegmentCount reports how many segments have been produced in total.
func (s *Segmenter) SegmentCount() int { return s.pub.Load().newest + 1 }

// Ended reports whether Finish has been called: the playlist is final and
// no further segments will appear.
func (s *Segmenter) Ended() bool { return s.pub.Load().pl.Ended }

// WindowSize returns the live playlist window size.
func (s *Segmenter) WindowSize() int { return s.windowSize }

// MaxKeep returns the fetchable-segment horizon (window plus grace):
// segments older than the newest minus MaxKeep are expired. Edge replicas
// size their caches to this so eviction stays in lockstep with the origin.
func (s *Segmenter) MaxKeep() int { return s.maxKeep }

// Target returns the target segment duration.
func (s *Segmenter) Target() time.Duration { return s.target }

// SegmentName formats the canonical URI for a sequence number (which is
// never negative): "seg", the number zero-padded to six digits, ".ts".
func SegmentName(seq int) string {
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(seq), 10)
	b := make([]byte, 0, len("seg000000.ts")+len(num))
	b = append(b, "seg"...)
	for pad := len(num); pad < 6; pad++ {
		b = append(b, '0')
	}
	b = append(b, num...)
	b = append(b, ".ts"...)
	return string(b)
}

// ParseSegmentName recovers the sequence number from a URI. It accepts
// exactly what SegmentName produces — "seg", six or more ASCII digits,
// ".ts" — so a name the origin never minted is refused at the edge instead
// of going upstream as a fill.
func ParseSegmentName(uri string) (int, error) {
	digits, ok := strings.CutPrefix(uri, "seg")
	if ok {
		digits, ok = strings.CutSuffix(digits, ".ts")
	}
	seq, canonical := parseSeq(digits, 6)
	if !ok || !canonical {
		return 0, fmt.Errorf("hls: bad segment name %q", uri)
	}
	return seq, nil
}

// parseSeq reads a sequence number as the tiers write it: ASCII digits,
// zero-padded to width and no further (one spelling per number), at most
// 18 (which cannot overflow an int64).
func parseSeq(digits string, width int) (int, bool) {
	ok := len(digits) >= width && len(digits) <= 18 && (len(digits) == width || digits[0] != '0')
	seq := 0
	for i := 0; ok && i < len(digits); i++ {
		c := digits[i]
		ok = '0' <= c && c <= '9'
		seq = seq*10 + int(c-'0')
	}
	return seq, ok
}
