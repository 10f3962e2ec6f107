package rtmp

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// interruptedMessage is a 158-byte chunk stream: a type-0 header on chunk
// stream 4 announces a 200-byte video message and 128 of its bytes
// follow, then a type-1 header on the same stream announces a 10-byte
// message while the first is unfinished, and its 10 bytes follow.
func interruptedMessage() []byte {
	b := []byte{0x04, 0, 0, 0, 0, 0, 200, TypeVideo, 1, 0, 0, 0}
	b = append(b, make([]byte, 128)...)
	b = append(b, 1<<6|4, 0, 0, 33, 0, 0, 10, TypeVideo)
	return append(b, make([]byte, 10)...)
}

// TestChunkReaderRefusesHeaderMidMessage pins what a message header means
// on a chunk stream whose message is still in progress: an error, with the
// partial message dropped, for each of the three header types that start a
// message.
func TestChunkReaderRefusesHeaderMidMessage(t *testing.T) {
	first := interruptedMessage()[:140]
	cases := []struct {
		name string
		in   []byte
	}{
		{"type-1", interruptedMessage()},
		{"type-0", append(append([]byte(nil), first...), 0<<6|4, 0, 0, 33, 0, 0, 10, TypeVideo, 1, 0, 0, 0)},
		{"type-2", append(append([]byte(nil), first...), 2<<6|4, 0, 0, 33)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cr := NewChunkReader(bytes.NewReader(c.in))
			msg, err := cr.ReadMessage()
			if err == nil || err == io.EOF {
				t.Fatalf("ReadMessage = %d-byte message, err %v; want a protocol error", len(msg.Payload), err)
			}
			if cr.first.assembled != nil || cr.first.bytesPending != 0 {
				t.Errorf("partial message kept: %d bytes pending", cr.first.bytesPending)
			}
		})
	}
}

// mediaSink is a Handler that hands every media message to a channel.
type mediaSink struct{ media chan Message }

func (h *mediaSink) OnConnect(c *ServerConn, app string) error  { return nil }
func (h *mediaSink) OnPlay(c *ServerConn, name string) error    { return nil }
func (h *mediaSink) OnPublish(c *ServerConn, name string) error { return nil }
func (h *mediaSink) OnMedia(c *ServerConn, msg Message)         { h.media <- msg }
func (h *mediaSink) OnClose(c *ServerConn)                      {}

// TestServerDropsPeerThatInterruptsAMessage sends the interrupted message
// to a server as a publisher-port peer would: that connection is closed,
// and the server still takes a second client's publish.
func TestServerDropsPeerThatInterruptsAMessage(t *testing.T) {
	h := &mediaSink{media: make(chan Message, 1)}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := HandshakeClient(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write(interruptedMessage()); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, bad); err != nil {
		t.Fatalf("server kept the broken connection open: %v", err)
	}

	pub, err := Dial(addr, "live")
	if err != nil {
		t.Fatalf("second client dial: %v", err)
	}
	defer pub.Close()
	if err := pub.Publish("after"); err != nil {
		t.Fatal(err)
	}
	if err := pub.WriteVideo(33, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-h.media:
		if msg.TypeID != TypeVideo || !bytes.Equal(msg.Payload, []byte{1, 2, 3}) {
			t.Errorf("handler received type %d payload %v, want video [1 2 3]", msg.TypeID, msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second client's message never reached the handler")
	}
}
