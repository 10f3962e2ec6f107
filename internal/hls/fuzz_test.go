package hls

import (
	"reflect"
	"strconv"
	"testing"
)

// The fuzz targets cover the bytes the tiers exchange: playlists, segment
// names and the fill protocol's query. Each checks that arbitrary input is
// refused or understood without a panic, and that what is understood
// round-trips through its marshalling twin. Seeds: testdata/fuzz/.

func FuzzParseMediaPlaylist(f *testing.F) {
	ended := livePlaylist(7, 8, 9)
	ended.Ended = true
	f.Add(ended.Marshal())
	f.Add(MediaPlaylist{TargetDuration: 4}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseMediaPlaylist(data)
		if err != nil {
			return
		}
		// One Segment per URI line: the parse cannot be made to hold more
		// than the input did.
		if len(p.Segments) > len(data)/2 {
			t.Fatalf("%d segments from %d bytes", len(p.Segments), len(data))
		}
		again, err := ParseMediaPlaylist(p.Marshal())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("Parse(Marshal(p)) = %+v, %v; p = %+v", again, err, p)
		}
	})
}

func FuzzParseSegmentName(f *testing.F) {
	f.Add("seg000042.ts", 42)
	f.Add("seg1000000.ts", 999_999)
	f.Fuzz(func(t *testing.T, name string, seq int) {
		if n, err := ParseSegmentName(name); err == nil && (n < 0 || SegmentName(n) != name) {
			t.Errorf("ParseSegmentName(%q) = %d, which SegmentName writes %q", name, n, SegmentName(n))
		}
		// Eighteen digits is all the parser reads; no broadcast gets there.
		if seq >= 0 && seq < 1e18 {
			if n, err := ParseSegmentName(SegmentName(seq)); err != nil || n != seq {
				t.Errorf("ParseSegmentName(SegmentName(%d)) = %d, %v", seq, n, err)
			}
		}
	})
}

func FuzzParseAfter(f *testing.F) {
	f.Add("after=41", 41)
	f.Add("", 0)
	f.Fuzz(func(t *testing.T, query string, seq int) {
		if n, err := parseAfter(query); err == nil && (n < -1 || n == -1 && query != "" || n >= 0 && query != "after="+strconv.Itoa(n)) {
			t.Errorf("parseAfter(%q) = %d, which the query does not spell", query, n)
		}
		if seq >= 0 && seq < 1e18 {
			if n, err := parseAfter("after=" + strconv.Itoa(seq)); err != nil || n != seq {
				t.Errorf("parseAfter(after=%d) = %d, %v", seq, n, err)
			}
		}
	})
}
