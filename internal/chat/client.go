package chat

import (
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"periscope/internal/websocket"
)

// ClientConfig configures the viewer-side chat client.
type ClientConfig struct {
	// ChatURL is the ws:// URL of the room.
	ChatURL string
	// HeartsURL is the http:// tap endpoint for this room (optional; only
	// needed to send hearts over HTTP — Heart falls back to the WebSocket
	// when unset).
	HeartsURL string
	// AvatarBaseURL is the http:// base for profile pictures.
	AvatarBaseURL string
	// DisplayChat mirrors the app's chat toggle. When false, JSON messages
	// still arrive over the WebSocket (as the paper observed) but no
	// avatars are downloaded. When true, every displayed message with an
	// avatar URL triggers a download — uncached.
	DisplayChat bool
	// Dial optionally routes the WebSocket through a shaped connection.
	Dial func(network, addr string) (net.Conn, error)
	// HTTPClient fetches avatars (may be bandwidth-shaped).
	HTTPClient *http.Client
}

// ClientStats summarises the chat client's traffic.
type ClientStats struct {
	MessagesReceived int
	MessagesShown    int
	AvatarDownloads  int
	AvatarBytes      int64
	WSBytes          int64
	// DuplicateAvatarDownloads counts re-downloads of a user's picture —
	// direct evidence of the missing cache.
	DuplicateAvatarDownloads int
	// HeartDeltas / HeartsSeen count coalesced heart messages received and
	// the total hearts they carried — HeartsSeen/HeartDeltas is the
	// server-side coalescing ratio as observed from this client.
	HeartDeltas int
	HeartsSeen  int
	// PresenceUpdates counts viewer-count messages; LastMembers is the
	// most recent reported room size.
	PresenceUpdates int
	LastMembers     int
	// MeanChatLatency is the mean sender→receiver delay of chat messages,
	// computed from SentUnixNano against this client's clock (both sides
	// share a clock in the testbed).
	MeanChatLatency time.Duration
}

// Client attaches to a chat room and mimics the app's traffic behaviour.
type Client struct {
	cfg  ClientConfig
	conn *websocket.Conn
	http *http.Client

	mu         sync.Mutex
	stats      ClientStats
	latencySum time.Duration
	latencyN   int
	seen       map[string]bool
	done       chan struct{}
}

// Join connects to the room and starts consuming messages.
func Join(cfg ClientConfig) (*Client, error) {
	conn, err := websocket.Dial(cfg.ChatURL, cfg.Dial)
	if err != nil {
		return nil, err
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{cfg: cfg, conn: conn, http: hc, seen: map[string]bool{}, done: make(chan struct{})}
	go c.loop()
	return c, nil
}

func (c *Client) loop() {
	defer close(c.done)
	for {
		_, data, err := c.conn.ReadMessage()
		if err != nil {
			return
		}
		m, err := decodeMessage(data)
		if err != nil {
			continue
		}
		now := time.Now().UnixNano()
		c.mu.Lock()
		display := false
		switch m.Kind {
		case KindHeartDelta:
			c.stats.HeartDeltas++
			c.stats.HeartsSeen += m.Count
		case KindPresence:
			c.stats.PresenceUpdates++
			c.stats.LastMembers = m.Members
		case KindChat:
			c.stats.MessagesReceived++
			if m.SentUnixNano > 0 && now >= m.SentUnixNano {
				c.latencySum += time.Duration(now - m.SentUnixNano)
				c.latencyN++
			}
			display = c.cfg.DisplayChat
			if display {
				c.stats.MessagesShown++
			}
		}
		c.stats.WSBytes = c.conn.BytesRead.Load()
		c.mu.Unlock()
		if display && m.AvatarURL != "" {
			c.fetchAvatar(m.AvatarURL, m.User)
		}
	}
}

// fetchAvatar downloads a profile picture without any caching.
func (c *Client) fetchAvatar(url, user string) {
	resp, err := c.http.Get(c.cfg.AvatarBaseURL + url)
	if err != nil {
		return
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.mu.Lock()
	c.stats.AvatarDownloads++
	c.stats.AvatarBytes += n
	if c.seen[user] {
		c.stats.DuplicateAvatarDownloads++
	}
	c.seen[user] = true
	c.mu.Unlock()
}

// Send posts a chat message (ignored by the server if the room was full
// when this client joined).
func (c *Client) Send(text string) error {
	var buf [encodeBuf]byte
	m := Message{User: "measurement-client", Text: text, SentUnixNano: time.Now().UnixNano()}
	return c.conn.WriteMessage(websocket.OpText, encodeMessage(buf[:0], &m))
}

// Heart taps n hearts (n<=0 taps one): POST to HeartsURL when configured,
// otherwise a heart message on the WebSocket. Either way the server
// coalesces — tapping never causes per-tap fan-out.
func (c *Client) Heart(n int) error {
	if n <= 0 {
		n = 1
	}
	if c.cfg.HeartsURL != "" {
		resp, err := c.http.Post(c.cfg.HeartsURL+"?n="+strconv.Itoa(n), "text/plain", nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	var buf [encodeBuf]byte
	m := Message{Kind: KindHeart, Count: n}
	return c.conn.WriteMessage(websocket.OpText, encodeMessage(buf[:0], &m))
}

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.WSBytes = c.conn.BytesRead.Load()
	if c.latencyN > 0 {
		s.MeanChatLatency = c.latencySum / time.Duration(c.latencyN)
	}
	return s
}

// Close detaches from the room.
func (c *Client) Close() error {
	err := c.conn.Close()
	select {
	case <-c.done:
	case <-time.After(time.Second):
	}
	return err
}
