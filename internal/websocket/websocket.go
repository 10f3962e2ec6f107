// Package websocket implements the subset of RFC 6455 that the Periscope
// chat uses ("The chat uses Websockets to deliver messages", §3): the
// HTTP Upgrade handshake with Sec-WebSocket-Accept validation, frame
// encoding/decoding with client-side masking, fragmentation reassembly,
// and text/binary/ping/pong/close opcodes.
package websocket

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// rfc6455GUID is the magic GUID concatenated with the key in the handshake.
const rfc6455GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Opcodes.
const (
	OpContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	OpClose        = 0x8
	OpPing         = 0x9
	OpPong         = 0xA
)

// ErrClosed is returned after a close frame has been exchanged.
var ErrClosed = errors.New("websocket: connection closed")

// MaxMessage bounds one incoming message, its frames counted together and
// checked before a byte is allocated: a chat message is a few hundred bytes
// (the benchmark's layer pass sends ≈ 90 B), so 128 KiB refuses nothing the
// protocol sends while capping what a peer can make a connection allocate.
const MaxMessage = 128 << 10

// errTooBig refuses a message past MaxMessage; the peer is sent close code
// 1009 (message too big, RFC 6455 §7.4.1).
var errTooBig = fmt.Errorf("websocket: message over %d bytes refused", MaxMessage)

// maxControl bounds a control frame's payload (RFC 6455 §5.5).
const maxControl = 125

// errProtocol is what every frame that breaks RFC 6455's framing rules is
// refused as; the peer is sent close code 1002 (protocol error, §7.4.1).
var errProtocol = errors.New("websocket: protocol error")

var (
	errReservedBits   = fmt.Errorf("%w: reserved bits set", errProtocol)
	errReservedOpcode = fmt.Errorf("%w: reserved opcode", errProtocol)
	errControlFrame   = fmt.Errorf("%w: control frame fragmented or over %d bytes", errProtocol, maxControl)
	errMasking        = fmt.Errorf("%w: frame masked against its direction", errProtocol)
	errContinuation   = fmt.Errorf("%w: continuation without start", errProtocol)
	errInterleaved    = fmt.Errorf("%w: interleaved data frames", errProtocol)
)

// Conn is an established WebSocket connection.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	client bool // client connections mask outgoing frames
	// closed is atomic: Close may race the read loop's ReadMessage.
	closed atomic.Bool
	// BytesRead/BytesWritten count wire bytes for traffic accounting.
	// They are atomics because traffic snapshots (chat stats) read them
	// while the read/write loops are still running.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// AcceptKey computes the Sec-WebSocket-Accept value for a key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + rfc6455GUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade hijacks an HTTP request and completes the server handshake.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		return nil, errors.New("websocket: not an upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return nil, errors.New("websocket: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, errors.New("websocket: response writer cannot hijack")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := nc.Write([]byte(resp)); err != nil {
		nc.Close()
		return nil, err
	}
	return &Conn{nc: nc, br: brw.Reader}, nil
}

// Dial establishes a client connection to a ws:// URL using the given
// dialer (nil for net.Dial).
func Dial(rawURL string, dial func(network, addr string) (net.Conn, error)) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("websocket: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	if dial == nil {
		dial = net.Dial
	}
	nc, err := dial("tcp", host)
	if err != nil {
		return nil, err
	}
	keyRaw := make([]byte, 16)
	if _, err := rand.Read(keyRaw); err != nil {
		nc.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyRaw)
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		nc.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		nc.Close()
		return nil, fmt.Errorf("websocket: handshake status %d", resp.StatusCode)
	}
	if resp.Header.Get("Sec-WebSocket-Accept") != AcceptKey(key) {
		nc.Close()
		return nil, errors.New("websocket: bad Sec-WebSocket-Accept")
	}
	return &Conn{nc: nc, br: br, client: true}, nil
}

// PreparedMessage is a message framed once for delivery to many
// connections: fan-out paths (chat rooms) encode and frame a broadcast a
// single time and hand every member the same immutable buffer, instead of
// re-encoding the frame header per member. Server connections write the
// prepared frame directly (one syscall, zero allocations); client
// connections fall back to a masked per-connection write, as RFC 6455
// masking is per-frame random.
type PreparedMessage struct {
	opcode int
	frame  []byte // unmasked server-side frame: header + payload
	header int    // the header's length: the payload is frame[header:]
}

// PrepareMessage frames payload once for repeated unmasked writes. The
// payload is copied into the frame, whose tail is the message's Payload,
// so the caller may reuse its buffer at once: preparing a message costs
// the frame and the PreparedMessage, two allocations. It stays within the
// compiler's inlining budget, so a caller that keeps the PreparedMessage
// to itself has it on its stack.
func PrepareMessage(opcode int, payload []byte) *PreparedMessage {
	frame := newFrame(opcode, payload, false)
	return &PreparedMessage{opcode: opcode, frame: frame, header: len(frame) - len(payload)}
}

// Payload returns the prepared message's payload. Shared — callers must
// not mutate it.
func (pm *PreparedMessage) Payload() []byte { return pm.frame[pm.header:] }

// WritePrepared sends a prepared message. On server connections this is a
// single write of the shared pre-framed buffer.
func (c *Conn) WritePrepared(pm *PreparedMessage) error {
	if c.client {
		return c.WriteMessage(pm.opcode, pm.Payload())
	}
	if c.closed.Load() {
		return ErrClosed
	}
	return c.write(pm.frame)
}

// WriteMessage sends one unfragmented message with the given opcode.
func (c *Conn) WriteMessage(opcode int, payload []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.writeFrame(opcode, payload)
}

// newFrame builds one unfragmented frame, header and payload in a single
// exactly-sized buffer; a client's is masked with a fresh random key.
func newFrame(opcode int, payload []byte, client bool) []byte {
	var hdr [14]byte // two bytes, up to a 64-bit length, a masking key
	hdr[0] = 0x80 | byte(opcode)
	n := 2
	switch {
	case len(payload) < 126:
		hdr[1] = byte(len(payload))
	case len(payload) <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(len(payload)))
		n = 10
	}
	if client {
		// The key gets an array of its own: under the race detector
		// crypto/rand.Read's argument escapes, and filling hdr would move
		// every frame's header, a server's included, to the heap.
		var key [4]byte
		rand.Read(key[:]) // never fails: crypto/rand aborts the process instead
		hdr[1] |= 0x80
		n += copy(hdr[n:], key[:])
	}
	frame := make([]byte, n+len(payload))
	copy(frame, hdr[:n])
	body := frame[n:]
	copy(body, payload)
	if client {
		mask := hdr[n-4 : n]
		for i := range body {
			body[i] ^= mask[i&3]
		}
	}
	return frame
}

// writeFrame hands a whole frame to the transport in one Write. The read
// loop (pong, close echo) and a writer share the connection with no lock
// between them: net.Conn serialises whole Writes, so frames never
// interleave as long as each is exactly one.
func (c *Conn) writeFrame(opcode int, payload []byte) error {
	return c.write(newFrame(opcode, payload, c.client))
}

func (c *Conn) write(frame []byte) error {
	n, err := c.nc.Write(frame)
	c.BytesWritten.Add(int64(n))
	return err
}

// ReadMessage returns the next complete data message, transparently
// answering pings and reassembling fragmented messages. A frame that breaks
// RFC 6455's framing rules or a message past MaxMessage ends the connection:
// the peer is sent the close code that says why.
func (c *Conn) ReadMessage() (opcode int, payload []byte, err error) {
	if c.closed.Load() {
		return 0, nil, ErrClosed
	}
	var msg []byte
	msgOp := 0
	for {
		fin, op, data, err := c.readFrame(msg)
		switch {
		case err != nil:
		case op == OpContinuation && msgOp == 0:
			err = errContinuation
		case op == OpText || op == OpBinary:
			if msgOp != 0 {
				err = errInterleaved
			}
			msgOp = op
		}
		if err != nil {
			c.refuse(err)
			return 0, nil, err
		}
		switch op {
		case OpPing:
			if err := c.writeFrame(OpPong, data); err != nil {
				return 0, nil, err
			}
		case OpPong:
		case OpClose:
			c.closed.Store(true)
			// Echo the close frame best-effort, then report closed.
			c.writeFrame(OpClose, nil)
			return 0, nil, ErrClosed
		default:
			if msg = data; fin {
				return msgOp, msg, nil
			}
		}
	}
}

// refuse tells the peer why the frame just read ends the connection.
func (c *Conn) refuse(err error) {
	switch {
	case errors.Is(err, errTooBig):
		c.sendClose([]byte{1009 >> 8, 1009 & 0xFF})
	case errors.Is(err, errProtocol):
		c.sendClose([]byte{1002 >> 8, 1002 & 0xFF})
	}
}

// readFrame reads one frame, refusing it on its header when it breaks a
// framing rule or would take msg past MaxMessage. A data frame's payload is
// appended to msg, in place when msg has room; a control frame's payload
// comes back on its own.
func (c *Conn) readFrame(msg []byte) (fin bool, opcode int, payload []byte, err error) {
	var h [2]byte
	if _, err := io.ReadFull(c.br, h[:]); err != nil {
		return false, 0, nil, err
	}
	c.BytesRead.Add(2)
	fin = h[0]&0x80 != 0
	opcode = int(h[0] & 0x0F)
	masked := h[1]&0x80 != 0
	length := uint64(h[1] & 0x7F)
	control := opcode >= OpClose
	switch {
	case h[0]&0x70 != 0:
		return false, 0, nil, errReservedBits
	case opcode > OpBinary && opcode < OpClose, opcode > OpPong:
		return false, 0, nil, errReservedOpcode
	case control && (!fin || length > maxControl):
		return false, 0, nil, errControlFrame
	case masked == c.client:
		// Only a client masks: a server's frames must be, a client's
		// must not be (RFC 6455 §5.1).
		return false, 0, nil, errMasking
	}
	if control {
		msg = nil
	}
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		c.BytesRead.Add(2)
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		c.BytesRead.Add(8)
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > uint64(MaxMessage-len(msg)) {
		return false, 0, nil, errTooBig
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return false, 0, nil, err
		}
		c.BytesRead.Add(4)
	}
	payload = grow(msg, int(length))
	body := payload[len(msg):]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return false, 0, nil, err
	}
	c.BytesRead.Add(int64(length))
	if masked {
		for i := range body {
			body[i] ^= mask[i&3]
		}
	}
	return fin, opcode, payload, nil
}

// grow extends msg by n bytes. A first frame gets a buffer of exactly its
// size; a message read in fragments at least doubles its buffer, up to
// MaxMessage, whenever it runs out of room, so its buffers add up to under
// four times its length.
func grow(msg []byte, n int) []byte {
	if need := len(msg) + n; need > cap(msg) {
		grown := make([]byte, len(msg), max(need, min(2*cap(msg), MaxMessage)))
		copy(grown, msg)
		msg = grown
	}
	return msg[:len(msg)+n]
}

// closeGrace bounds how long Close waits to get its close frame out. A
// Write blocked on a peer that has stopped reading holds the transport's
// write lock: Close is what releases that writer (a fan-out eviction
// relies on it), so it must not queue behind it without a deadline.
const closeGrace = 50 * time.Millisecond

// Close sends a close frame, best-effort, and closes the transport.
func (c *Conn) Close() error {
	c.sendClose(nil)
	return c.nc.Close()
}

// sendClose sends the connection's one close frame, best-effort.
func (c *Conn) sendClose(payload []byte) {
	if c.closed.CompareAndSwap(false, true) {
		c.nc.SetWriteDeadline(time.Now().Add(closeGrace))
		c.writeFrame(OpClose, payload)
	}
}
