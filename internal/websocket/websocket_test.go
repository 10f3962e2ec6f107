package websocket

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 section 1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	if got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Errorf("AcceptKey = %s", got)
	}
}

func startEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			t.Logf("upgrade: %v", err)
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
}

func wsURL(s *httptest.Server) string {
	return "ws" + strings.TrimPrefix(s.URL, "http")
}

func TestEchoTextAndBinary(t *testing.T) {
	srv := startEchoServer(t)
	defer srv.Close()
	c, err := Dial(wsURL(srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.WriteMessage(OpText, []byte("hello chat")); err != nil {
		t.Fatal(err)
	}
	op, msg, err := c.ReadMessage()
	if err != nil || op != OpText || string(msg) != "hello chat" {
		t.Fatalf("op=%d msg=%q err=%v", op, msg, err)
	}

	big := bytes.Repeat([]byte{0xAB}, 70_000) // forces 64-bit length
	if err := c.WriteMessage(OpBinary, big); err != nil {
		t.Fatal(err)
	}
	op, msg, err = c.ReadMessage()
	if err != nil || op != OpBinary || !bytes.Equal(msg, big) {
		t.Fatalf("binary echo failed: op=%d len=%d err=%v", op, len(msg), err)
	}
}

func TestMediumFrame(t *testing.T) {
	srv := startEchoServer(t)
	defer srv.Close()
	c, err := Dial(wsURL(srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mid := bytes.Repeat([]byte("x"), 300) // forces 16-bit length
	if err := c.WriteMessage(OpBinary, mid); err != nil {
		t.Fatal(err)
	}
	_, msg, err := c.ReadMessage()
	if err != nil || !bytes.Equal(msg, mid) {
		t.Fatalf("len=%d err=%v", len(msg), err)
	}
}

func TestPingHandledTransparently(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		// Ping, then a data message: client must only surface the data.
		c.WriteMessage(OpPing, []byte("beat"))
		c.WriteMessage(OpText, []byte("after-ping"))
		// Expect the pong back.
		op, msg, err := c.ReadMessage()
		_ = op
		_ = msg
		_ = err
	}))
	defer srv.Close()
	c, err := Dial(wsURL(srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	op, msg, err := c.ReadMessage()
	if err != nil || op != OpText || string(msg) != "after-ping" {
		t.Fatalf("op=%d msg=%q err=%v", op, msg, err)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := startEchoServer(t)
	defer srv.Close()
	c, err := Dial(wsURL(srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.WriteMessage(OpText, []byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startEchoServer(t)
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(wsURL(srv), nil)
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				want := []byte{byte(id), byte(j)}
				if err := c.WriteMessage(OpBinary, want); err != nil {
					t.Errorf("client %d write: %v", id, err)
					return
				}
				_, got, err := c.ReadMessage()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("client %d echo mismatch", id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTrafficAccounting(t *testing.T) {
	srv := startEchoServer(t)
	defer srv.Close()
	c, err := Dial(wsURL(srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteMessage(OpText, bytes.Repeat([]byte("a"), 1000))
	c.ReadMessage()
	if c.BytesWritten.Load() < 1000 || c.BytesRead.Load() < 1000 {
		t.Errorf("accounting: wrote %d read %d", c.BytesWritten.Load(), c.BytesRead.Load())
	}
}

func TestDialRejectsHTTPURL(t *testing.T) {
	if _, err := Dial("http://example.com", nil); err == nil {
		t.Error("want error for non-ws scheme")
	}
}

// recConn records every transport Write and serves Reads from a script.
type recConn struct {
	net.Conn
	in     bytes.Reader
	writes [][]byte
}

func (c *recConn) Read(b []byte) (int, error)       { return c.in.Read(b) }
func (c *recConn) Close() error                     { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(b))
	return len(b), nil
}

// shortFrame hand-builds a frame with a payload under 126 bytes; a masked
// one uses the all-zero key, which leaves the payload as it is.
func shortFrame(op int, payload string, masked bool) []byte {
	f := []byte{0x80 | byte(op), byte(len(payload))}
	if masked {
		f[1] |= 0x80
		f = append(f, 0, 0, 0, 0)
	}
	return append(f, payload...)
}

// TestFrameIsOneTransportWrite: the read loop answers pings and close
// frames on the connection a fan-out writer is sending on, with no lock
// between them; frames stay whole only because each is exactly one
// transport Write. Every way of sending a frame, in both roles, must
// produce one Write that parses back as exactly that frame.
func TestFrameIsOneTransportWrite(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 70_000)
	for _, client := range []bool{false, true} {
		rec := &recConn{}
		c := &Conn{nc: rec, br: bufio.NewReader(rec), client: client}
		// What the peer sends: a ping, then a close. Its frames are masked
		// iff it is the client.
		rec.in.Reset(append(shortFrame(OpPing, "beat", !client), shortFrame(OpClose, "", !client)...))

		type sent struct {
			op      int
			payload []byte
		}
		var want []sent
		for _, payload := range [][]byte{[]byte("hello"), big[:300], big} {
			if err := c.WriteMessage(OpText, payload); err != nil {
				t.Fatal(err)
			}
			want = append(want, sent{OpText, payload})
		}
		if err := c.WritePrepared(PrepareMessage(OpBinary, []byte("shared"))); err != nil {
			t.Fatal(err)
		}
		want = append(want, sent{OpBinary, []byte("shared")})
		// The read loop answers the ping, echoes the close and reports it.
		if _, _, err := c.ReadMessage(); err != ErrClosed {
			t.Fatalf("client=%v: ReadMessage = %v, want ErrClosed after the peer's close", client, err)
		}
		want = append(want, sent{OpPong, []byte("beat")}, sent{OpClose, nil})

		if len(rec.writes) != len(want) {
			t.Fatalf("client=%v: %d frames took %d transport writes", client, len(want), len(rec.writes))
		}
		for i, w := range rec.writes {
			peer := &Conn{br: bufio.NewReader(bytes.NewReader(w)), client: !client}
			fin, op, payload, err := peer.readFrame(nil)
			if err != nil || !fin || op != want[i].op || !bytes.Equal(payload, want[i].payload) {
				t.Errorf("client=%v: write %d is not frame %d (op %d, %d bytes): fin=%v op=%d len=%d err=%v",
					client, i, i, want[i].op, len(want[i].payload), fin, op, len(payload), err)
			}
			if peer.br.Buffered() != 0 {
				t.Errorf("client=%v: write %d carries %d bytes past its frame", client, i, peer.br.Buffered())
			}
			if masked := w[1]&0x80 != 0; masked != client {
				t.Errorf("client=%v: write %d masked=%v", client, i, masked)
			}
		}

		// Close on an open connection is one whole close frame too.
		rec = &recConn{}
		c = &Conn{nc: rec, br: bufio.NewReader(rec), client: client}
		c.Close()
		c.Close()
		if len(rec.writes) != 1 || rec.writes[0][0] != 0x80|OpClose {
			t.Errorf("client=%v: two Closes wrote %d frames, want one close frame", client, len(rec.writes))
		}
	}
}

// TestPrepareMessageCopiesPayload: PrepareMessage copies its argument, so
// the caller may reuse the buffer at once. What either role of connection
// writes for the prepared message, and its Payload, must not change when
// the caller's slice does.
func TestPrepareMessageCopiesPayload(t *testing.T) {
	payload := []byte("shared")
	pm := PrepareMessage(OpText, payload)
	copy(payload, "reused")
	if string(pm.Payload()) != "shared" {
		t.Errorf("Payload is %q after the caller reused its buffer, want %q", pm.Payload(), "shared")
	}
	for _, client := range []bool{false, true} {
		rec := &recConn{}
		c := &Conn{nc: rec, br: bufio.NewReader(rec), client: client}
		if err := c.WritePrepared(pm); err != nil {
			t.Fatal(err)
		}
		peer := &Conn{br: bufio.NewReader(bytes.NewReader(rec.writes[0])), client: !client}
		if _, op, got, err := peer.readFrame(nil); err != nil || op != OpText || string(got) != "shared" {
			t.Errorf("client=%v: wrote op %d %q (%v) after the caller reused its buffer, want %q", client, op, got, err, "shared")
		}
	}
}

// TestCloseReleasesBlockedWriter: a write to a peer that has stopped
// reading blocks holding the transport's write lock. Close — which is how
// the fan-out core evicts a hopeless member — must neither wait behind it
// for ever nor leave it blocked.
func TestCloseReleasesBlockedWriter(t *testing.T) {
	server, peer := net.Pipe() // synchronous: nobody reads, so a Write blocks
	defer peer.Close()
	c := &Conn{nc: server, br: bufio.NewReader(server)}
	wrote := make(chan error, 1)
	go func() { wrote <- c.WritePrepared(PrepareMessage(OpText, []byte("never read"))) }()
	time.Sleep(10 * time.Millisecond) // let the write block first; either order must work
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is stuck behind the blocked write")
	}
	select {
	case err := <-wrote:
		if err == nil {
			t.Error("the write nobody read reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked write outlived Close")
	}
}

// hostilePeer is the far end of a net.Pipe whose near end is a server
// Conn: it writes frames and collects what the server writes back.
type hostilePeer struct {
	net.Conn
	got chan []byte // everything the server wrote, once its side closes
}

func newHostilePeer(t *testing.T) (*Conn, *hostilePeer) {
	t.Helper()
	server, peer := net.Pipe()
	p := &hostilePeer{Conn: peer, got: make(chan []byte, 1)}
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(peer)
		p.got <- buf.Bytes()
	}()
	return &Conn{nc: server, br: bufio.NewReader(server)}, p
}

// maskedHeader is the header of a masked (client) frame announcing n
// payload bytes in the 64-bit length form, with the all-zero mask key.
func maskedHeader(op byte, fin bool, n uint64) []byte {
	h := []byte{op, 0x80 | 127}
	if fin {
		h[0] |= 0x80
	}
	h = binary.BigEndian.AppendUint64(h, n)
	return append(h, 0, 0, 0, 0)
}

// readRefused runs ReadMessage on c and returns its error, failing the
// test if it accepts a message or does not return in time.
func readRefused(t *testing.T, c *Conn) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, msg, err := c.ReadMessage()
		if err == nil {
			err = fmt.Errorf("accepted a %d-byte message", len(msg))
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		c.nc.Close()
		t.Fatal("ReadMessage neither refused nor returned the message")
		return nil
	}
}

// wantClose checks that all c wrote to its peer is one close frame with
// the given code.
func wantClose(t *testing.T, c *Conn, p *hostilePeer, code uint16) {
	t.Helper()
	c.nc.Close()
	got := <-p.got
	peer := &Conn{br: bufio.NewReader(bytes.NewReader(got)), client: !c.client}
	_, op, payload, err := peer.readFrame(nil)
	if want := binary.BigEndian.AppendUint16(nil, code); err != nil || op != OpClose || !bytes.Equal(payload, want) || peer.br.Buffered() != 0 {
		t.Errorf("wrote %d bytes (% x…), want only a close frame with code %d", len(got), got[:min(len(got), 16)], code)
	}
}

// TestHugeFrameRefusedBeforeAllocation: a peer announcing a 64 MiB frame
// is refused on its header — the payload is never allocated — and told
// why with close code 1009.
func TestHugeFrameRefusedBeforeAllocation(t *testing.T) {
	c, p := newHostilePeer(t)
	defer p.Close()
	go p.Write(maskedHeader(OpBinary, true, 64<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := readRefused(t, c)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTooBig) {
		t.Errorf("ReadMessage = %v, want the message refused as too big", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= MaxMessage {
		t.Errorf("refusing the frame allocated %d bytes, want under MaxMessage (%d)", grew, MaxMessage)
	}
	wantClose(t, c, p, 1009)
}

// TestFragmentFloodRefusedAtBound: a message sent as ever more small
// continuation frames, none too big on its own, is refused once the
// reassembled total would pass MaxMessage.
func TestFragmentFloodRefusedAtBound(t *testing.T) {
	const frag = 100
	c, p := newHostilePeer(t)
	defer p.Close()
	var sent atomic.Int64 // payload bytes the server has taken
	go func() {
		op := byte(OpText)
		for i := 0; i < 4*MaxMessage/frag; i++ {
			if _, err := p.Write(append(maskedHeader(op, false, frag), make([]byte, frag)...)); err != nil {
				return
			}
			sent.Add(frag)
			op = OpContinuation
		}
		p.Write(maskedHeader(OpContinuation, true, 0))
	}()
	if err := readRefused(t, c); !errors.Is(err, errTooBig) {
		t.Errorf("ReadMessage = %v, want the message refused as too big", err)
	}
	if got := sent.Load(); got > MaxMessage+frag {
		t.Errorf("the server read %d payload bytes before refusing, want at most MaxMessage (%d) and a frame", got, MaxMessage)
	}
	wantClose(t, c, p, 1009)
}

// refusesAsProtocolError sends frames that break a framing rule, then a
// well-formed message, to a connection in the given role. It must refuse
// them as a protocol error before the message, answering nothing but a
// close frame with code 1002.
func refusesAsProtocolError(t *testing.T, client bool, frames ...[]byte) {
	t.Helper()
	c, p := newHostilePeer(t)
	defer p.Close()
	c.client = client
	go func() {
		for _, f := range append(frames, shortFrame(OpText, "ok", !client)) {
			if _, err := p.Write(f); err != nil {
				return
			}
		}
	}()
	if err := readRefused(t, c); !errors.Is(err, errProtocol) {
		t.Errorf("ReadMessage = %v, want the frame refused as a protocol error", err)
	}
	wantClose(t, c, p, 1002)
}

// TestOversizedControlFrameRefused: a control frame carries at most 125
// bytes, so a 128 KiB ping is refused on its header, not answered with a
// 128 KiB pong.
func TestOversizedControlFrameRefused(t *testing.T) {
	refusesAsProtocolError(t, false, append(maskedHeader(OpPing, true, MaxMessage), make([]byte, MaxMessage)...))
}

// TestFragmentedControlFrameRefused: control frames must not be fragmented.
func TestFragmentedControlFrameRefused(t *testing.T) {
	refusesAsProtocolError(t, false, append(maskedHeader(OpPing, false, 4), "beat"...))
}

// TestReservedOpcodeRefused: opcodes 0x3–0x7 and 0xB–0xF are reserved; a
// frame carrying one is not a message.
func TestReservedOpcodeRefused(t *testing.T) {
	for _, op := range []byte{0x3, 0x7, 0xB, 0xF} {
		refusesAsProtocolError(t, false, append(maskedHeader(op, true, 2), "hi"...))
	}
}

// TestReservedBitsRefused: with no extension negotiated, RSV1–3 must be 0.
func TestReservedBitsRefused(t *testing.T) {
	for _, rsv := range []byte{0x40, 0x20, 0x10} {
		f := append(maskedHeader(OpText, true, 2), "hi"...)
		f[0] |= rsv
		refusesAsProtocolError(t, false, f)
	}
}

// TestUnmaskedFrameToServerRefused: every frame a client sends is masked.
func TestUnmaskedFrameToServerRefused(t *testing.T) {
	refusesAsProtocolError(t, false, shortFrame(OpText, "hi", false))
}

// TestMaskedFrameToClientRefused: a server never masks its frames.
func TestMaskedFrameToClientRefused(t *testing.T) {
	refusesAsProtocolError(t, true, shortFrame(OpText, "hi", true))
}

// stream is a transport that plays a peer's byte stream and discards what
// is written to it, allocating nothing of its own.
type stream struct {
	net.Conn
	in bytes.Reader
}

func (s *stream) Read(b []byte) (int, error)       { return s.in.Read(b) }
func (s *stream) Write(b []byte) (int, error)      { return len(b), nil }
func (s *stream) Close() error                     { return nil }
func (s *stream) SetWriteDeadline(time.Time) error { return nil }

func streamConn(peer []byte, client bool) *Conn {
	s := &stream{}
	s.in.Reset(peer)
	return &Conn{nc: s, br: bufio.NewReader(s), client: client}
}

func heapBytes(fn func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	fn()
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

// framed is message (op, payload) as its peer would send it to a
// connection in the given role, built by newFrame: whole when size is 0,
// else in fragments of size bytes, with a ping after each fragment but the
// last when pings is set.
func framed(op int, payload []byte, size int, pings, client bool) []byte {
	if size == 0 {
		return newFrame(op, payload, !client)
	}
	var out []byte
	for first := true; first || len(payload) > 0; first = false {
		n := min(size, len(payload))
		f := newFrame(op, payload[:n], !client)
		if payload = payload[n:]; len(payload) > 0 {
			f[0] &^= 0x80 // not the final fragment
		}
		out = append(out, f...)
		if pings && len(payload) > 0 {
			out = append(out, newFrame(OpPing, []byte("beat"), !client)...)
		}
		op = OpContinuation
	}
	return out
}

// FuzzReadMessage plays any bytes as the peer's stream to a server and to a
// client connection. Neither panics, and neither allocates more than one
// frame's MaxMessage bound plus a small constant per byte the peer sent: a
// header announcing more is refused before its payload is allocated, and
// fragments are reassembled by doubling. The same bytes, read as a message
// (the first byte picks the opcode, the fragment size and pings between
// fragments; the rest is the payload) and framed by newFrame within the
// rules, read back unchanged.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := streamConn(data, false), streamConn(data, true)
		allocated := heapBytes(func() {
			for _, c := range []*Conn{server, client} {
				for {
					if _, _, err := c.ReadMessage(); err != nil {
						break
					}
				}
			}
		})
		if limit := 2 * (MaxMessage + 1<<10 + 4*uint64(len(data))); allocated > limit {
			t.Fatalf("%d bytes from the peer, read by a server and a client, allocated %d, limit %d", len(data), allocated, limit)
		}

		for _, client := range []bool{false, true} {
			var ctl byte
			payload := data
			if len(data) > 0 {
				ctl, payload = data[0], data[1:min(len(data), MaxMessage+1)]
			}
			op, size, pings := OpText+int(ctl&1), int(ctl>>2), ctl&2 != 0
			c := streamConn(framed(op, payload, size, pings, client), client)
			if gotOp, got, err := c.ReadMessage(); err != nil || gotOp != op || !bytes.Equal(got, payload) {
				t.Fatalf("client=%v: op %d, %d bytes in fragments of %d (pings %v) read back as op %d, %d bytes, err %v",
					client, op, len(payload), size, pings, gotOp, len(got), err)
			}
		}
	})
}
