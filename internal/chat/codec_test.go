package chat

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"periscope/internal/websocket"
)

// echoMessage is a chat message as the chat-room benchmark's members send
// it: user, text and the sender's clock.
const echoMessage = `{"user":"worker-0","text":"worker-0 message 1","sent_unix_nano":1460000000000000000}`

// verbatim reports whether json.Marshal writes every string of m as it
// is: the messages the codec must append itself rather than hand to
// encoding/json.
func verbatim(m Message) bool {
	for _, s := range []string{m.Kind, m.User, m.Text, m.AvatarURL} {
		if b, _ := json.Marshal(s); string(b) != `"`+s+`"` {
			return false
		}
	}
	return true
}

// FuzzMessageCodec checks the message codec against encoding/json, its
// reference, in both directions. Decode: whatever scanMessage accepts is
// what json.Unmarshal decodes without error, and decodeMessage gives what
// json.Unmarshal gives on every input, error or not. Encode: a message
// built from the fuzzed fields is written by encodeMessage byte for byte
// as json.Marshal writes it, after whatever the buffer already holds; one
// with nothing to escape is appended by the codec itself, and the scanner
// reads what it appended back to the same message.
func FuzzMessageCodec(f *testing.F) {
	f.Add([]byte(echoMessage), "", "worker-0", "worker-0 message 1", "", int64(0), int64(0), int64(0), int64(1460000000000000000))
	f.Add([]byte(`{"kind":"heart","count":5}`), "presence", "", "", "", int64(0), int64(1000), int64(1000), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, kind, user, text, avatar string, count, members, joined, sent int64) {
		var want Message
		errWant := json.Unmarshal(data, &want)
		var scanned Message
		if scanMessage(data, &scanned) && (errWant != nil || scanned != want) {
			t.Fatalf("scan %q: accepted as %+v; json.Unmarshal %+v, %v", data, scanned, want, errWant)
		}
		if got, err := decodeMessage(data); (err == nil) != (errWant == nil) || got != want {
			t.Fatalf("decode %q: codec %+v, %v; json.Unmarshal %+v, %v", data, got, err, want, errWant)
		}

		m := Message{Kind: kind, User: user, Text: text, AvatarURL: avatar,
			Count: int(count), Members: int(members), Joined: int(joined), SentUnixNano: sent}
		marshalled, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("json.Marshal %+v: %v", m, err)
		}
		if got := encodeMessage([]byte("x"), &m); !bytes.Equal(got, append([]byte("x"), marshalled...)) {
			t.Fatalf("encode %+v: codec %q, json.Marshal %q", m, got[1:], marshalled)
		}
		appended, ok := appendMessage(nil, &m)
		if ok != verbatim(m) {
			t.Fatalf("encode %+v: appended %v, want %v", m, ok, !ok)
		}
		var back Message
		if ok && (!scanMessage(appended, &back) || back != m) {
			t.Fatalf("scan of the appended %q: %+v, want %+v", appended, back, m)
		}
	})
}

// TestCodecCoversEveryField: a Message with every field set is appended
// and scanned by the codec itself, as json.Marshal writes it, so a field
// added to Message without its line in the codec fails here rather than
// vanishing from the wire.
func TestCodecCoversEveryField(t *testing.T) {
	var m Message
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("field %s is a %s, which the codec does not write", v.Type().Field(i).Name, f.Kind())
		}
	}
	want, _ := json.Marshal(m)
	got, ok := appendMessage(nil, &m)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("appended %q (%v), json.Marshal %q", got, ok, want)
	}
	var back Message
	if !scanMessage(want, &back) || back != m {
		t.Fatalf("scanned %q as %+v, want %+v", want, back, m)
	}
}

// TestInboundMessageAllocs pins what one inbound chat message costs the
// server before fan-out: decoding it allocates its user and text, and
// preparing the broadcast allocates the frame and its PreparedMessage;
// the encoding itself stays on the stack.
func TestInboundMessageAllocs(t *testing.T) {
	data := []byte(echoMessage)
	var pm *websocket.PreparedMessage
	allocs := testing.AllocsPerRun(100, func() {
		m, err := decodeMessage(data)
		if err != nil {
			t.Fatal(err)
		}
		out := Message{User: m.User, Text: m.Text, SentUnixNano: m.SentUnixNano}
		pm = prepareMessage(&out)
	})
	if allocs != 4 {
		t.Errorf("one inbound message decoded and prepared: %v allocations, want 4", allocs)
	}
	if string(pm.Payload()) != echoMessage {
		t.Errorf("prepared %q, want %q", pm.Payload(), echoMessage)
	}
}

// BenchmarkMessageCodec is one inbound chat message's way through the
// server: scanned, appended as its broadcast and framed once (4 allocs/op).
func BenchmarkMessageCodec(b *testing.B) {
	data := []byte(echoMessage)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		m, err := decodeMessage(data)
		if err != nil {
			b.Fatal(err)
		}
		out := Message{User: m.User, Text: m.Text, SentUnixNano: m.SentUnixNano}
		prepareMessage(&out)
	}
}
