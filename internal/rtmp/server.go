package rtmp

import (
	"errors"
	"log"
	"net"
	"sync"

	"periscope/internal/amf"
)

// Handler receives server-side RTMP events. Callbacks run on the
// connection's read goroutine; OnPlay typically starts a pusher goroutine
// that calls ServerConn.SendVideo/SendAudio.
type Handler interface {
	// OnConnect is called after the connect command; returning an error
	// rejects the session.
	OnConnect(c *ServerConn, app string) error
	// OnPlay is called when a viewer requests a stream.
	OnPlay(c *ServerConn, streamName string) error
	// OnPublish is called when a broadcaster starts publishing.
	OnPublish(c *ServerConn, streamName string) error
	// OnMedia delivers audio/video/data messages from a publisher.
	OnMedia(c *ServerConn, msg Message)
	// OnClose is called when the connection terminates.
	OnClose(c *ServerConn)
}

// Server accepts RTMP connections, mirroring the Amazon EC2 "vidman"
// machines that terminate Periscope RTMP sessions.
type Server struct {
	Handler Handler
	// Name optionally identifies the server instance (e.g. the simulated
	// region), surfaced to handlers via ServerConn.Server.
	Name string

	mu sync.Mutex
	ln net.Listener
}

// Serve accepts connections on ln until it is closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln == nil {
		s.ln = ln
	}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(nc)
	}
}

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	if err := HandshakeServer(nc); err != nil {
		return
	}
	sc := &ServerConn{Conn: NewConn(nc), Server: s}
	defer func() {
		if s.Handler != nil {
			s.Handler.OnClose(sc)
		}
	}()
	if err := sc.loop(); err != nil {
		return
	}
}

// ServerConn is the server side of one RTMP session.
type ServerConn struct {
	*Conn
	// Server is the owning server (nil for bare connections).
	Server *Server
	// App is the application name from connect.
	App string
	// Playing and Publishing record the negotiated role.
	Playing    bool
	Publishing bool
	// StreamName is the stream negotiated via play/publish.
	StreamName string

	streamID uint32
}

// loop runs the command dispatch until the connection drops.
func (sc *ServerConn) loop() error {
	for {
		msg, err := sc.ReadMessage()
		if err != nil {
			return err
		}
		switch msg.TypeID {
		case TypeCommandAMF0:
			cmd, err := ParseCommand(msg)
			// AMF decoding copies every value out of the payload, so the
			// buffer can go back to the chunk-layer pool immediately.
			RecycleMessagePayload(msg.Payload)
			if err != nil {
				continue
			}
			if err := sc.handleCommand(cmd); err != nil {
				return err
			}
		case TypeAudio, TypeVideo, TypeDataAMF0:
			if sc.Server != nil && sc.Server.Handler != nil {
				sc.Server.Handler.OnMedia(sc, msg)
			}
		}
	}
}

func (sc *ServerConn) handleCommand(cmd Command) error {
	h := handlerOf(sc)
	switch cmd.Name {
	case "connect":
		if app, ok := cmd.Object["app"].(string); ok {
			sc.App = app
		}
		if h != nil {
			if err := h.OnConnect(sc, sc.App); err != nil {
				sc.WriteCommand(0, "_error", cmd.Transaction, nil, amf.Object{
					"level": "error", "code": "NetConnection.Connect.Rejected",
					"description": err.Error(),
				})
				return err
			}
		}
		if err := sc.WriteMessage(Message{TypeID: TypeWindowAckSize, Payload: uint32Payload(DefaultWindowAckSize)}); err != nil {
			return err
		}
		// Set Peer Bandwidth: window, dynamic limit type (2).
		pb := append(uint32Payload(DefaultWindowAckSize), 2)
		if err := sc.WriteMessage(Message{TypeID: TypeSetPeerBandwidth, Payload: pb}); err != nil {
			return err
		}
		if err := sc.SetChunkSize(preferredChunkSize); err != nil {
			return err
		}
		return sc.WriteCommand(0, "_result", cmd.Transaction,
			amf.Object{"fmsVer": "FMS/3,5,7,7009", "capabilities": 31.0},
			amf.Object{"level": "status", "code": "NetConnection.Connect.Success",
				"description": "Connection succeeded."})
	case "createStream":
		sc.streamID = 1
		return sc.WriteCommand(0, "_result", cmd.Transaction, nil, float64(sc.streamID))
	case "play":
		if len(cmd.Args) < 1 {
			return errors.New("rtmp: play without stream name")
		}
		name, _ := cmd.Args[0].(string)
		sc.StreamName = name
		sc.Playing = true
		if err := sc.WriteMessage(Message{TypeID: TypeUserControl,
			Payload: MarshalUserControl(EventStreamBegin, sc.streamID)}); err != nil {
			return err
		}
		if err := sc.WriteCommand(sc.streamID, "onStatus", 0, nil, amf.Object{
			"level": "status", "code": "NetStream.Play.Start",
			"description": "Started playing " + name + ".",
		}); err != nil {
			return err
		}
		if h != nil {
			return h.OnPlay(sc, name)
		}
		return nil
	case "publish":
		if len(cmd.Args) < 1 {
			return errors.New("rtmp: publish without stream name")
		}
		name, _ := cmd.Args[0].(string)
		sc.StreamName = name
		sc.Publishing = true
		if err := sc.WriteCommand(sc.streamID, "onStatus", 0, nil, amf.Object{
			"level": "status", "code": "NetStream.Publish.Start",
			"description": "Publishing " + name + ".",
		}); err != nil {
			return err
		}
		if h != nil {
			return h.OnPublish(sc, name)
		}
		return nil
	case "deleteStream", "closeStream", "FCUnpublish":
		return nil
	default:
		// Unknown commands are ignored, as real servers do.
		return nil
	}
}

func handlerOf(sc *ServerConn) Handler {
	if sc.Server == nil {
		return nil
	}
	return sc.Server.Handler
}

// SendVideo pushes a video message to the viewer.
func (sc *ServerConn) SendVideo(timestamp uint32, data []byte) error {
	return sc.WriteMessage(Message{TypeID: TypeVideo, StreamID: sc.streamID, Timestamp: timestamp, Payload: data})
}

// SendAudio pushes an audio message to the viewer.
func (sc *ServerConn) SendAudio(timestamp uint32, data []byte) error {
	return sc.WriteMessage(Message{TypeID: TypeAudio, StreamID: sc.streamID, Timestamp: timestamp, Payload: data})
}

// ListenAndServe is a convenience helper used by the service simulator.
func ListenAndServe(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Handler: h}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		if err := s.Serve(ln); err != nil {
			log.Printf("rtmp server: %v", err)
		}
	}()
	return s, nil
}
