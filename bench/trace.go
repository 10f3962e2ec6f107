package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// spanName identifies the layer boundary a span wraps. Spans are recorded
// from the benchmark's own files, around the calls into each layer.
type spanName uint8

const (
	spIteration spanName = iota // one generator request: root of its spans
	spPlaylistGet
	spPlaylistParse
	spSegmentGet
	spSegmentVerify
	spAPIAccessVideo
	spAPIMapGeo
	spAPIGetBroadcasts
	spAPITeleport
	spAPIPlaybackMeta
	spChatSend
	spChatEcho
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gen.iteration",
	"hls.edge_playlist_get",
	"hls.playlist_parse",
	"hls.edge_segment_get",
	"mpegts.segment_verify",
	"api.access_video",
	"api.map_geo",
	"api.get_broadcasts",
	"api.teleport",
	"api.playback_meta",
	"websocket.chat_send",
	"chat.echo",
}

// span is one timed call. Spans of one generator request share req; parent
// is the index (in the same worker's slice) of the span that caused it, -1
// for a root.
type span struct {
	name   spanName
	req    uint32
	parent int32
	start  int64 // ns since the tracer was created
	dur    int64 // ns
}

// maxSpansPerWorker bounds the in-memory trace (32 B per span); spans past
// the cap are counted, not kept, so a traced run cannot grow without limit.
const maxSpansPerWorker = 1 << 19

// tracer keeps the spans of a traced run in memory, one slice per
// generator worker so recording takes no lock; they are written out only
// after the measured window has ended. A nil *tracer records nothing,
// which is how the untraced run is spelled.
type tracer struct {
	t0      time.Time
	spans   [numWorkers][]span
	dropped [numWorkers]int
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	for i := range tr.spans {
		tr.spans[i] = make([]span, 0, maxSpansPerWorker)
	}
	return tr
}

// begin opens a span and returns its index, or -1 when not tracing.
func (tr *tracer) begin(worker int, name spanName, req uint32, parent int32) int32 {
	if tr == nil {
		return -1
	}
	s := tr.spans[worker]
	if len(s) == cap(s) {
		tr.dropped[worker]++
		return -1
	}
	tr.spans[worker] = append(s, span{name: name, req: req, parent: parent, start: int64(time.Since(tr.t0)), dur: -1})
	return int32(len(s))
}

// end closes the span opened by begin.
func (tr *tracer) end(worker int, idx int32) {
	if tr == nil || idx < 0 {
		return
	}
	s := &tr.spans[worker][idx]
	s.dur = int64(time.Since(tr.t0)) - s.start
}

// durations returns the closed spans of one name across workers, in ns.
func (tr *tracer) durations(name spanName) []float64 {
	var out []float64
	for _, spans := range tr.spans {
		for i := range spans {
			if spans[i].name == name && spans[i].dur >= 0 {
				out = append(out, float64(spans[i].dur))
			}
		}
	}
	return out
}

// selfRatio is the share of root-span time not covered by child spans: the
// generator's own bookkeeping between calls into the system.
func (tr *tracer) selfRatio() float64 {
	var root, child int64
	for _, spans := range tr.spans {
		for i := range spans {
			s := &spans[i]
			if s.dur < 0 {
				continue
			}
			if s.parent < 0 {
				root += s.dur
			} else if spans[s.parent].parent < 0 {
				child += s.dur
			}
		}
	}
	if root == 0 {
		return 0
	}
	return float64(root-child) / float64(root)
}

// writeJSONL dumps the trace as one JSON object per span.
func (tr *tracer) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for worker, spans := range tr.spans {
		for i := range spans {
			s := &spans[i]
			line = line[:0]
			line = append(line, `{"worker":`...)
			line = strconv.AppendInt(line, int64(worker), 10)
			line = append(line, `,"id":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"req":`...)
			line = strconv.AppendUint(line, uint64(s.req), 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"dur_ns":`...)
			line = strconv.AppendInt(line, s.dur, 10)
			line = append(line, "}\n"...)
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

// percentile returns the q-quantile (0..1, nearest rank) of vals, or 0 for
// an empty sample. vals is sorted in place.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }
