package rtmp

import (
	"fmt"
	"net"

	"periscope/internal/amf"
)

// Client is an RTMP client connection (the role the Periscope app plays
// both when broadcasting and when viewing an unpopular stream).
type Client struct {
	*Conn
	app      string
	streamID uint32
}

// Dial connects to addr, performs the handshake and the NetConnection
// connect exchange for the given application name.
func Dial(addr, app string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClientConn(nc, app, "rtmp://"+addr+"/"+app)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClientConn runs the client handshake and connect command over an
// existing transport (lets tests and the bandwidth shaper supply the
// net.Conn).
func NewClientConn(nc net.Conn, app, tcURL string) (*Client, error) {
	if err := HandshakeClient(nc); err != nil {
		return nil, err
	}
	c := &Client{Conn: NewConn(nc), app: app}
	if err := c.SetChunkSize(preferredChunkSize); err != nil {
		return nil, err
	}
	if err := c.WriteMessage(Message{TypeID: TypeWindowAckSize, Payload: uint32Payload(DefaultWindowAckSize)}); err != nil {
		return nil, err
	}
	tx := c.nextTransaction()
	obj := amf.Object{
		"app":          app,
		"flashVer":     "LNX 11,2,202,280",
		"tcUrl":        tcURL,
		"fpad":         false,
		"capabilities": 15.0,
		"audioCodecs":  3191.0,
		"videoCodecs":  252.0,
	}
	if err := c.WriteCommand(0, "connect", tx, obj); err != nil {
		return nil, err
	}
	if _, err := c.waitResult(tx); err != nil {
		return nil, fmt.Errorf("rtmp: connect: %w", err)
	}
	return c, nil
}

// CreateStream allocates a message stream id on the server.
func (c *Client) CreateStream() (uint32, error) {
	tx := c.nextTransaction()
	if err := c.WriteCommand(0, "createStream", tx, nil); err != nil {
		return 0, err
	}
	res, err := c.waitResult(tx)
	if err != nil {
		return 0, err
	}
	if len(res.Args) < 1 {
		return 0, fmt.Errorf("rtmp: createStream result missing stream id")
	}
	id, ok := res.Args[0].(float64)
	if !ok {
		return 0, fmt.Errorf("rtmp: createStream returned %T", res.Args[0])
	}
	c.streamID = uint32(id)
	return c.streamID, nil
}

// Play requests playback of the named stream. After Play returns, media
// messages arrive via ReadMessage.
func (c *Client) Play(name string) error {
	if c.streamID == 0 {
		if _, err := c.CreateStream(); err != nil {
			return err
		}
	}
	return c.WriteCommand(c.streamID, "play", 0, nil, name)
}

// Publish announces a live publish of the named stream; afterwards feed
// media with WriteAudio/WriteVideo.
func (c *Client) Publish(name string) error {
	if c.streamID == 0 {
		if _, err := c.CreateStream(); err != nil {
			return err
		}
	}
	return c.WriteCommand(c.streamID, "publish", 0, nil, name, "live")
}

// WriteVideo sends a video message (FLV video tag data) at the given
// millisecond timestamp.
func (c *Client) WriteVideo(timestamp uint32, data []byte) error {
	return c.WriteMessage(Message{TypeID: TypeVideo, StreamID: c.streamID, Timestamp: timestamp, Payload: data})
}

// WriteAudio sends an audio message (FLV audio tag data).
func (c *Client) WriteAudio(timestamp uint32, data []byte) error {
	return c.WriteMessage(Message{TypeID: TypeAudio, StreamID: c.streamID, Timestamp: timestamp, Payload: data})
}
