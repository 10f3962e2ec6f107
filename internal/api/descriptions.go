package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The description answers, MapGeoBroadcastFeedResponse and
// GetBroadcastsResponse, share the shape {"broadcasts":[BroadcastDesc…]}
// and are most of what the API sends: the §4 crawler replays
// mapGeoBroadcastFeed over ever-smaller rectangles and polls getBroadcasts
// for viewer counts. So the gateway appends them and the client scans
// them, with no reflection at either end. The codec covers one exact
// form, json.Encoder's: keys in field order, omitempty honoured, floats
// as encoding/json writes them and the trailing newline. An answer
// outside it takes encoding/json at both ends, which makes the codec's
// output byte-identical to the encoder's and its decode equal to
// json.Unmarshal's on every input, by construction.

// encodeAnswer encodes v into buf: a description answer by
// appendDescriptions when it can write it, anything else by json.Encoder.
func encodeAnswer(buf *bytes.Buffer, v any) error {
	var ds []BroadcastDesc // nil, and so declined, unless v is one
	switch a := v.(type) {
	case MapGeoBroadcastFeedResponse:
		ds = a.Broadcasts
	case GetBroadcastsResponse:
		ds = a.Broadcasts
	}
	if b, ok := appendDescriptions(buf.AvailableBuffer(), ds); ok {
		buf.Write(b)
		return nil
	}
	return json.NewEncoder(buf).Encode(v)
}

// decodeAnswer decodes an answer into resp: a description answer by
// scanDescriptions when it accepts the input, anything else by
// json.Unmarshal.
func decodeAnswer(data []byte, resp any) error {
	var ds *[]BroadcastDesc
	switch a := resp.(type) {
	case *MapGeoBroadcastFeedResponse:
		ds = &a.Broadcasts
	case *GetBroadcastsResponse:
		ds = &a.Broadcasts
	}
	if ds != nil && scanDescriptions(data, ds) {
		return nil
	}
	return json.Unmarshal(data, resp)
}

// appendDescriptions appends {"broadcasts":ds} as json.Encoder, with its
// default HTML escaping, encodes it. It reports false for an answer it
// cannot write that way without escaping or failing: a nil slice, a
// string that needs an escape, or a NaN or infinite float (which the
// encoder refuses).
func appendDescriptions(dst []byte, ds []BroadcastDesc) ([]byte, bool) {
	if ds == nil {
		return dst, false
	}
	dst = append(dst, `{"broadcasts":[`...)
	for i := range ds {
		d := &ds[i]
		if !plain(d.ID) || !plain(d.CreatedAt) || !plain(d.State) || !plain(d.Region) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":"`...)
		dst = append(dst, d.ID...)
		dst = append(dst, `","created_at":"`...)
		dst = append(dst, d.CreatedAt...)
		dst = append(dst, `","state":"`...)
		dst = append(dst, d.State...)
		dst = append(dst, '"')
		var ok bool
		if d.Latitude != 0 {
			dst = append(dst, `,"latitude":`...)
			if dst, ok = appendFloat(dst, d.Latitude); !ok {
				return dst, false
			}
		}
		if d.Longitude != 0 {
			dst = append(dst, `,"longitude":`...)
			if dst, ok = appendFloat(dst, d.Longitude); !ok {
				return dst, false
			}
		}
		dst = append(dst, `,"location_disclosed":`...)
		dst = strconv.AppendBool(dst, d.LocationDisclosed)
		dst = append(dst, `,"available_for_replay":`...)
		dst = strconv.AppendBool(dst, d.AvailableForReplay)
		if d.Region != "" {
			dst = append(dst, `,"region":"`...)
			dst = append(dst, d.Region...)
			dst = append(dst, '"')
		}
		if d.NumWatching != 0 {
			dst = append(dst, `,"n_watching":`...)
			dst = strconv.AppendInt(dst, int64(d.NumWatching), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), true
}

// plain reports whether json.Encoder writes s verbatim: valid UTF-8 with
// no control byte, quote, backslash, HTML-sensitive <>& or U+2028/U+2029.
func plain(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// appendFloat formats f as encoding/json does: 'f' form, or 'e' outside
// [1e-6, 1e21) with a one-digit exponent's leading zero trimmed.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// scanDescriptions decodes the form appendDescriptions writes, without
// whitespace or escapes, into *dst as json.Unmarshal would: reusing its
// backing array from index 0, an empty list as a non-nil empty slice. It
// reports false on any other input, and on a slot of *dst's backing array
// that is not zero (json.Unmarshal would merge into it), and then leaves
// *dst and its backing array exactly as they were.
func scanDescriptions(data []byte, dst *[]BroadcastDesc) bool {
	r := descScanner{data: data}
	orig := (*dst)[:cap(*dst)]
	s := orig[:0]
	ok := r.lit(`{"broadcasts":[`)
	if ok && !r.lit("]") {
		for {
			if len(s) < cap(s) && s[:len(s)+1][len(s)] != (BroadcastDesc{}) {
				ok = false
				break
			}
			s = append(s, BroadcastDesc{})
			if ok = r.desc(&s[len(s)-1]); !ok || !r.lit(",") {
				break
			}
		}
		ok = ok && r.lit("]")
	}
	if !ok || !r.lit("}") || !(r.off == len(data) || r.off == len(data)-1 && data[r.off] == '\n') {
		clear(orig[:min(len(s), len(orig))])
		return false
	}
	if len(s) == 0 {
		s = []BroadcastDesc{}
	}
	*dst = s
	return true
}

// descScanner reads a description answer left to right.
type descScanner struct {
	data []byte
	off  int
}

// lit consumes s if the input continues with it.
func (r *descScanner) lit(s string) bool {
	if len(r.data)-r.off < len(s) || string(r.data[r.off:r.off+len(s)]) != s {
		return false
	}
	r.off += len(s)
	return true
}

// desc reads one description into d, which is zero.
func (r *descScanner) desc(d *BroadcastDesc) bool {
	ok := r.lit(`{"id":"`) && r.str(&d.ID) &&
		r.lit(`,"created_at":"`) && r.str(&d.CreatedAt) &&
		r.lit(`,"state":"`) && r.str(&d.State)
	if ok && r.lit(`,"latitude":`) {
		ok = r.float(&d.Latitude)
	}
	if ok && r.lit(`,"longitude":`) {
		ok = r.float(&d.Longitude)
	}
	ok = ok && r.lit(`,"location_disclosed":`) && r.bool(&d.LocationDisclosed) &&
		r.lit(`,"available_for_replay":`) && r.bool(&d.AvailableForReplay)
	if ok && r.lit(`,"region":"`) {
		ok = r.str(&d.Region)
	}
	if ok && r.lit(`,"n_watching":`) {
		ok = r.int(&d.NumWatching)
	}
	return ok && r.lit("}")
}

// str reads the rest of a string whose opening quote is consumed: valid
// UTF-8 with no control byte or escape, which json.Unmarshal copies
// verbatim. The two broadcast states are interned.
func (r *descScanner) str(v *string) bool {
	for i := r.off; i < len(r.data); {
		switch c := r.data[i]; {
		case c == '"':
			switch b := r.data[r.off:i]; string(b) {
			case "RUNNING":
				*v = "RUNNING"
			case "ENDED":
				*v = "ENDED"
			default:
				*v = string(b)
			}
			r.off = i + 1
			return true
		case c < 0x20 || c == '\\':
			return false
		case c < utf8.RuneSelf:
			i++
		default:
			rr, size := utf8.DecodeRune(r.data[i:])
			if rr == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	return false
}

func (r *descScanner) bool(v *bool) bool {
	if r.lit("true") {
		*v = true
		return true
	}
	return r.lit("false")
}

// float reads a number as encoding/json reads one into a float64.
func (r *descScanner) float(v *float64) bool {
	b, ok := r.number()
	if ok {
		var err error
		*v, err = strconv.ParseFloat(string(b), 64)
		ok = err == nil
	}
	return ok
}

// int reads a number as encoding/json reads one into an int.
func (r *descScanner) int(v *int) bool {
	b, ok := r.number()
	if ok {
		n, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
		*v, ok = int(n), err == nil
	}
	return ok
}

// number consumes a number of JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *descScanner) number() ([]byte, bool) {
	d, i := r.data, r.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	b := d[r.off:i]
	r.off = i
	return b, true
}

// digits returns the index past the run of decimal digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}
