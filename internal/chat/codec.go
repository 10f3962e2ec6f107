package chat

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"periscope/internal/websocket"
)

// Every chat message is decoded where it arrives and encoded once per
// broadcast, at the server and in the app client. The codec covers one
// exact form, json.Marshal's: keys in field order, omitempty honoured,
// and strings that need no escape. A message outside it takes
// encoding/json at both ends, which makes the codec's output
// byte-identical to json.Marshal's and its decode equal to
// json.Unmarshal's on every input, by construction. The encoding/json
// calls sit in functions of their own, so only that slow path moves a
// Message to the heap.

// encodeBuf sizes the stack buffer a message is encoded into before it is
// framed or written: every message the room sends itself and a chat
// message of a few hundred bytes fit; a longer one spills to the heap.
const encodeBuf = 512

// decodeMessage decodes data as json.Unmarshal decodes it into a zero
// Message.
func decodeMessage(data []byte) (Message, error) {
	var m Message
	if scanMessage(data, &m) {
		return m, nil
	}
	return unmarshalMessage(data)
}

// unmarshalMessage is decodeMessage's slow path.
func unmarshalMessage(data []byte) (Message, error) {
	var m Message
	err := json.Unmarshal(data, &m)
	return m, err
}

// encodeMessage appends m as json.Marshal writes it.
func encodeMessage(dst []byte, m *Message) []byte {
	if b, ok := appendMessage(dst, m); ok {
		return b
	}
	return marshalMessage(dst, *m)
}

// marshalMessage is encodeMessage's slow path.
func marshalMessage(dst []byte, m Message) []byte {
	b, _ := json.Marshal(m) // never fails: a Message holds only strings and integers
	return append(dst, b...)
}

// prepareMessage encodes m and frames it once for every member: the
// encoding stays on the stack, and the frame is the one allocation
// PrepareMessage copies it into.
func prepareMessage(m *Message) *websocket.PreparedMessage {
	var buf [encodeBuf]byte
	return websocket.PrepareMessage(websocket.OpText, encodeMessage(buf[:0], m))
}

// appendMessage appends m as json.Marshal writes it. It reports false for
// a message it cannot write that way without escaping: one with a string
// that is not plain.
func appendMessage(dst []byte, m *Message) ([]byte, bool) {
	if !plain(m.Kind) || !plain(m.User) || !plain(m.Text) || !plain(m.AvatarURL) {
		return dst, false
	}
	// Every field is written with a leading comma; the first one's becomes
	// the opening brace.
	start := len(dst)
	dst = appendString(dst, `,"kind":"`, m.Kind)
	dst = appendString(dst, `,"user":"`, m.User)
	dst = appendString(dst, `,"text":"`, m.Text)
	dst = appendString(dst, `,"avatar_url":"`, m.AvatarURL)
	dst = appendInt(dst, `,"count":`, int64(m.Count))
	dst = appendInt(dst, `,"members":`, int64(m.Members))
	dst = appendInt(dst, `,"joined":`, int64(m.Joined))
	dst = appendInt(dst, `,"sent_unix_nano":`, m.SentUnixNano)
	if len(dst) == start {
		return append(dst, "{}"...), true
	}
	dst[start] = '{'
	return append(dst, '}'), true
}

// appendString appends a string field unless it is empty.
func appendString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendInt appends an integer field unless it is zero.
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// plain reports whether json.Marshal writes s verbatim: valid UTF-8 with
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

// scanMessage decodes the form appendMessage writes, without whitespace or
// escapes, into m, which is zero, as json.Unmarshal would. It reports
// false on any other input, a field json.Marshal would omit included; m is
// then partly written and must be discarded.
func scanMessage(data []byte, m *Message) bool {
	if string(data) == "{}" {
		return true
	}
	r := msgScanner{data: data, sep: '{'}
	ok := r.str(`"kind":"`, &m.Kind) && r.str(`"user":"`, &m.User) &&
		r.str(`"text":"`, &m.Text) && r.str(`"avatar_url":"`, &m.AvatarURL) &&
		r.int(`"count":`, &m.Count) && r.int(`"members":`, &m.Members) &&
		r.int(`"joined":`, &m.Joined) && r.int64(`"sent_unix_nano":`, &m.SentUnixNano)
	return ok && r.sep == ',' && r.off == len(data)-1 && data[r.off] == '}'
}

// msgScanner reads a message left to right. sep is what precedes the next
// field: the opening brace, then a comma once a field has been read.
type msgScanner struct {
	data []byte
	off  int
	sep  byte
}

// key consumes sep and key if the input continues with them.
func (r *msgScanner) key(key string) bool {
	rest := r.data[r.off:]
	if len(rest) <= len(key) || rest[0] != r.sep || string(rest[1:1+len(key)]) != key {
		return false
	}
	r.off += 1 + len(key)
	r.sep = ','
	return true
}

// str reads a string field if it comes next: non-empty, valid UTF-8 with
// no control byte or escape, which json.Unmarshal copies verbatim. It
// reports false only on a field it cannot read.
func (r *msgScanner) str(key string, v *string) bool {
	if !r.key(key) {
		return true
	}
	for i := r.off; i < len(r.data); {
		switch c := r.data[i]; {
		case c == '"':
			if i == r.off {
				return false
			}
			*v = string(r.data[r.off:i])
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

// int reads an int field if it comes next.
func (r *msgScanner) int(key string, v *int) bool {
	n, ok := r.number(key, strconv.IntSize)
	*v = int(n)
	return ok
}

// int64 reads an int64 field if it comes next.
func (r *msgScanner) int64(key string, v *int64) bool {
	n, ok := r.number(key, 64)
	*v = n
	return ok
}

// number reads a non-zero integer field of the given size if it comes
// next, as strconv.AppendInt writes one: -?[1-9][0-9]*. It reports false
// only on a field it cannot read.
func (r *msgScanner) number(key string, bits int) (int64, bool) {
	if !r.key(key) {
		return 0, true
	}
	d, i := r.data, r.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i == len(d) || d[i] < '1' || d[i] > '9' {
		return 0, false
	}
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	n, err := strconv.ParseInt(string(d[r.off:i]), 10, bits)
	r.off = i
	return n, err == nil
}
