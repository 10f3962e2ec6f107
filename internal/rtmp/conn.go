package rtmp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"periscope/internal/amf"
)

// DefaultWindowAckSize is the acknowledgement window both sides announce.
const DefaultWindowAckSize = 2_500_000

// preferredChunkSize is the chunk size announced after connect; 4096 keeps
// per-message overhead low for video.
const preferredChunkSize = 4096

// connBufSize sizes the buffered transport on each side: large enough to
// hold a whole video message's chunks, so one message costs one syscall
// instead of one per chunk header.
const connBufSize = 16 << 10

// Conn is an RTMP connection after a successful handshake. It layers
// message read/write over the chunk stream, maintains acknowledgement
// accounting and answers protocol pings transparently. Both directions
// are buffered; writes are flushed at message boundaries.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer
	cr *ChunkReader
	cw *ChunkWriter

	writeMu sync.Mutex

	peerWindowAck uint32
	lastAcked     uint64

	txMu   sync.Mutex
	nextTx float64
}

// NewConn wraps an already-handshaken net.Conn.
func NewConn(nc net.Conn) *Conn {
	// The ChunkReader buffers reads internally; only the write side needs
	// the bufio layer to coalesce header/payload writes into one syscall.
	bw := bufio.NewWriterSize(nc, connBufSize)
	return &Conn{
		nc:            nc,
		bw:            bw,
		cr:            NewChunkReader(nc),
		cw:            NewChunkWriter(bw),
		peerWindowAck: DefaultWindowAckSize,
		nextTx:        1,
	}
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.nc.Close() }

// WriteMessage sends one message on an appropriate chunk stream.
func (c *Conn) WriteMessage(msg Message) error {
	csid := uint32(csidCommand)
	switch msg.TypeID {
	case TypeSetChunkSize, TypeAbort, TypeAck, TypeUserControl, TypeWindowAckSize, TypeSetPeerBandwidth:
		csid = csidProtocol
	case TypeAudio:
		csid = csidAudio
	case TypeVideo:
		csid = csidVideo
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.cw.WriteMessage(csid, msg); err != nil {
		return err
	}
	return c.bw.Flush()
}

// SetChunkSize announces and applies a new outgoing chunk size.
func (c *Conn) SetChunkSize(n uint32) error {
	if err := c.WriteMessage(Message{TypeID: TypeSetChunkSize, Payload: uint32Payload(n)}); err != nil {
		return err
	}
	c.writeMu.Lock()
	c.cw.SetChunkSize(n)
	c.writeMu.Unlock()
	return nil
}

// ReadMessage returns the next application-visible message. Protocol
// bookkeeping messages (Ack, ping, window size) are handled internally and
// not returned; Set Chunk Size is applied by the chunk reader.
func (c *Conn) ReadMessage() (Message, error) {
	for {
		msg, err := c.cr.ReadMessage()
		if err != nil {
			return Message{}, err
		}
		// Acknowledgement generation.
		if c.peerWindowAck > 0 && c.cr.BytesRead-c.lastAcked >= uint64(c.peerWindowAck) {
			c.lastAcked = c.cr.BytesRead
			if err := c.WriteMessage(Message{TypeID: TypeAck, Payload: uint32Payload(uint32(c.cr.BytesRead))}); err != nil {
				return Message{}, err
			}
		}
		// Messages consumed here never reach the caller, so their pooled
		// payload buffers can be recycled immediately.
		switch msg.TypeID {
		case TypeSetChunkSize, TypeAck, TypeAbort:
			RecycleMessagePayload(msg.Payload)
			continue
		case TypeWindowAckSize:
			if v, err := parseUint32Payload(msg.Payload); err == nil {
				c.peerWindowAck = v
			}
			RecycleMessagePayload(msg.Payload)
			continue
		case TypeSetPeerBandwidth:
			RecycleMessagePayload(msg.Payload)
			continue
		case TypeUserControl:
			ev, err := ParseUserControl(msg.Payload)
			if err == nil && ev.Event == EventPingRequest {
				// Echo at most the 4-byte timestamp; a short request must
				// not slice past what the peer actually sent.
				resp := MarshalUserControl(EventPingResponse)
				resp = append(resp, ev.Data...)
				if len(resp) > 6 {
					resp = resp[:6]
				}
				if err := c.WriteMessage(Message{TypeID: TypeUserControl, Payload: resp}); err != nil {
					return Message{}, err
				}
				RecycleMessagePayload(msg.Payload)
				continue
			}
			return msg, nil
		default:
			return msg, nil
		}
	}
}

// nextTransaction returns a fresh AMF command transaction id.
func (c *Conn) nextTransaction() float64 {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	tx := c.nextTx
	c.nextTx++
	return tx
}

// Command is a decoded AMF0 command message.
type Command struct {
	Name        string
	Transaction float64
	Object      amf.Object // command object (may be nil)
	Args        []any      // remaining arguments
	StreamID    uint32
}

// ParseCommand decodes a type-20 message payload.
func ParseCommand(msg Message) (Command, error) {
	if msg.TypeID != TypeCommandAMF0 {
		return Command{}, fmt.Errorf("rtmp: message type %d is not a command", msg.TypeID)
	}
	vals, err := amf.Unmarshal(msg.Payload)
	if err != nil {
		return Command{}, err
	}
	if len(vals) < 2 {
		return Command{}, errors.New("rtmp: command too short")
	}
	name, ok := vals[0].(string)
	if !ok {
		return Command{}, errors.New("rtmp: command name not a string")
	}
	tx, ok := vals[1].(float64)
	if !ok {
		return Command{}, errors.New("rtmp: transaction id not a number")
	}
	cmd := Command{Name: name, Transaction: tx, StreamID: msg.StreamID}
	rest := vals[2:]
	if len(rest) > 0 {
		if obj, ok := rest[0].(amf.Object); ok {
			cmd.Object = obj
		}
		cmd.Args = rest[1:]
	}
	return cmd, nil
}

// WriteCommand sends an AMF0 command message.
func (c *Conn) WriteCommand(streamID uint32, name string, tx float64, object any, args ...any) error {
	vals := append([]any{name, tx, object}, args...)
	payload, err := amf.Marshal(vals...)
	if err != nil {
		return err
	}
	return c.WriteMessage(Message{TypeID: TypeCommandAMF0, StreamID: streamID, Payload: payload})
}

// waitResult reads messages until a _result/_error command for tx arrives.
// Non-command messages received meanwhile are discarded (none are expected
// during connection setup).
func (c *Conn) waitResult(tx float64) (Command, error) {
	for {
		msg, err := c.ReadMessage()
		if err != nil {
			return Command{}, err
		}
		if msg.TypeID != TypeCommandAMF0 {
			RecycleMessagePayload(msg.Payload)
			continue
		}
		cmd, err := ParseCommand(msg)
		RecycleMessagePayload(msg.Payload)
		if err != nil {
			return Command{}, err
		}
		if cmd.Name == "_result" && cmd.Transaction == tx {
			return cmd, nil
		}
		if cmd.Name == "_error" && cmd.Transaction == tx {
			return cmd, fmt.Errorf("rtmp: command rejected: %v", cmd.Args)
		}
	}
}
