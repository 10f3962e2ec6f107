// Package hls implements HTTP Live Streaming as Periscope uses it for
// popular broadcasts (§3, §5): M3U8 media playlists, a live sliding-window
// segmenter cutting MPEG-TS segments at keyframes (most segments ~3.6 s,
// ranging 3-6 s, §5.2), an HTTP delivery handler standing in for the
// Fastly CDN edge, and the viewer: a polling client that fetches one
// segment at a time and stamps each with its capture time.
package hls

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Segment is one entry of a media playlist.
type Segment struct {
	URI      string
	Duration float64 // seconds
	Sequence int
}

// MediaPlaylist is an HLS media playlist (live window or VOD).
type MediaPlaylist struct {
	Version        int
	TargetDuration int
	MediaSequence  int
	Segments       []Segment
	Ended          bool
}

// Marshal renders the playlist in M3U8 format.
func (p MediaPlaylist) Marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "#EXTM3U\n")
	version := p.Version
	if version == 0 {
		version = 3
	}
	fmt.Fprintf(&b, "#EXT-X-VERSION:%d\n", version)
	fmt.Fprintf(&b, "#EXT-X-TARGETDURATION:%d\n", p.TargetDuration)
	fmt.Fprintf(&b, "#EXT-X-MEDIA-SEQUENCE:%d\n", p.MediaSequence)
	for _, s := range p.Segments {
		fmt.Fprintf(&b, "#EXTINF:%.3f,\n%s\n", s.Duration, s.URI)
	}
	if p.Ended {
		fmt.Fprintf(&b, "#EXT-X-ENDLIST\n")
	}
	return b.Bytes()
}

// ParseMediaPlaylist decodes an M3U8 media playlist. What it accepts
// round-trips, Parse(p.Marshal()) == p: numbers are plain ASCII digits, an
// absent version is the protocol's 1, the media sequence precedes the
// segments, durations are finite, non-negative and kept to Marshal's ms.
func ParseMediaPlaylist(data []byte) (MediaPlaylist, error) {
	p := MediaPlaylist{Version: 1}
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "#EXTM3U" {
		return p, errors.New("hls: missing #EXTM3U header")
	}
	pendingDur := -1.0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		tag, val, _ := strings.Cut(line, ":")
		switch tag {
		case "":
			continue
		case "#EXT-X-VERSION", "#EXT-X-TARGETDURATION", "#EXT-X-MEDIA-SEQUENCE":
			n, ok := parseSeq(val, 1)
			switch {
			case !ok, tag == "#EXT-X-VERSION" && n == 0, tag == "#EXT-X-MEDIA-SEQUENCE" && len(p.Segments) > 0:
				return p, fmt.Errorf("hls: bad %s %q", tag, val)
			case tag == "#EXT-X-VERSION":
				p.Version = n
			case tag == "#EXT-X-TARGETDURATION":
				p.TargetDuration = n
			default:
				p.MediaSequence = n
			}
		case "#EXTINF":
			spec, _, _ := strings.Cut(val, ",")
			d, err := strconv.ParseFloat(spec, 64)
			// Within 1e9 s a float64 holds the milliseconds exactly.
			if err != nil || !(d >= 0 && d <= 1e9) {
				return p, fmt.Errorf("hls: bad EXTINF %q", spec)
			}
			pendingDur = math.Round(d*1000) / 1000
		case "#EXT-X-ENDLIST":
			p.Ended = true
		default:
			if line[0] == '#' {
				continue // unknown tag
			}
			if pendingDur < 0 {
				return p, fmt.Errorf("hls: segment URI %q without EXTINF", line)
			}
			p.Segments = append(p.Segments, Segment{URI: line, Duration: pendingDur, Sequence: p.MediaSequence + len(p.Segments)})
			pendingDur = -1
		}
	}
	return p, sc.Err()
}

// MaxSegmentDuration returns the longest segment duration, or 0.
func (p MediaPlaylist) MaxSegmentDuration() float64 {
	var m float64
	for _, s := range p.Segments {
		m = math.Max(m, s.Duration)
	}
	return m
}
