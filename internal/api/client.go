package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrRateLimited is returned when the server answers HTTP 429; the crawler
// paces itself on it. RetryAfter carries the server's Retry-After hint
// (zero when the server sent none).
type ErrRateLimited struct {
	RetryAfter time.Duration
}

func (ErrRateLimited) Error() string { return "api: HTTP 429 Too Many Requests" }

// The client's 429 handling once WithRetry turns it on: up to
// retryAttempts tries, the first included, with exponential backoff from
// retryBackoff doubling up to retryBackoffCap, never shorter than the
// server's Retry-After hint, plus up to retryJitter of it at random to
// de-synchronize herds of clients that were limited together.
const (
	retryAttempts   = 4
	retryBackoff    = 200 * time.Millisecond
	retryBackoffCap = 3 * time.Second
	retryJitter     = 0.25
)

// backoffFor computes the wait before retry number `retry` (0-based),
// honouring the server hint.
func backoffFor(retry int, serverHint time.Duration) time.Duration {
	d := min(retryBackoff<<retry, retryBackoffCap)
	d = max(d, serverHint)
	return d + time.Duration(rand.Float64()*retryJitter*float64(d))
}

// defaultTransport reuses connections across all clients of a process:
// the crawler's four sessions and a bench's dozens of goroutines each
// keep their sockets warm instead of redialing per request.
var defaultTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// CloseIdleConnections drops the shared transport's idle connections.
// The warm sockets are a feature for the life of a process, but their
// readLoop/writeLoop goroutines would read as leaks to the leakcheck
// TestMain harness — test binaries call this at teardown.
func CloseIdleConnections() { defaultTransport.CloseIdleConnections() }

// Client is the app-side API client, built over the same typed endpoint
// definitions the server mounts. Crawlers create one per logged-in
// session (distinct session tokens get distinct rate-limit buckets).
type Client struct {
	BaseURL string
	Session string
	HTTP    *http.Client
	// Sleep is the backoff clock, overridable in tests and virtual-time
	// setups; nil means time.Sleep.
	Sleep func(time.Duration)

	retry       bool // set by WithRetry
	rateLimited atomic.Int64
}

// NewClient creates a client for the API at baseURL with a session token.
// A nil hc uses a shared keep-alive transport.
func NewClient(baseURL, session string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Transport: defaultTransport}
	}
	return &Client{BaseURL: baseURL, Session: session, HTTP: hc}
}

// WithRetry turns on 429-aware retry with jittered backoff and returns
// the client. Without it a call makes a single attempt, which is what
// virtual-time crawlers want: they pace themselves through the population
// clock instead of sleeping wall time.
func (c *Client) WithRetry() *Client {
	c.retry = true
	return c
}

// RateLimited counts 429 responses received (retries included).
func (c *Client) RateLimited() int { return int(c.rateLimited.Load()) }

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Call issues one typed endpoint call: encode → POST → decode, retrying
// 429s when WithRetry turned that on. It is the only request path —
// every typed method goes through it, so client and server agree on
// paths, types, and the error envelope by construction.
func Call[Req, Resp any](c *Client, ep Endpoint[Req, Resp], req Req) (Resp, error) {
	var resp Resp
	err := call(c, ep, req, &resp)
	return resp, err
}

// call is Call decoding into *resp, so a caller that knows the answer's
// size can preset the capacity encoding/json appends into.
func call[Req, Resp any](c *Client, ep Endpoint[Req, Resp], req Req, resp *Resp) error {
	attempts := 1
	if c.retry {
		attempts = retryAttempts
	}
	for attempt := 0; ; attempt++ {
		err := c.do(ep.Name, req, resp)
		var rl ErrRateLimited
		if !errors.As(err, &rl) || attempt+1 >= attempts {
			return err
		}
		c.sleep(backoffFor(attempt, rl.RetryAfter))
	}
}

// maxAnswerBody bounds an answer or error envelope the client reads at
// ≈ 50× the largest one the default caps allow, a getBroadcasts of 100
// ids (≈ 20 KB of JSON). The gateway frames every answer, so a larger
// declared length is refused before anything is allocated.
const maxAnswerBody = 1 << 20

// maxErrorDrain bounds what is read of an unframed or oversized refusal
// to keep the connection reusable; a longer one costs the connection.
const maxErrorDrain = 64 << 10

// do performs one HTTP attempt against the named endpoint. A framed body
// within maxAnswerBody is read into one pooled buffer of exactly its
// declared length, which goes back to the pool only after decoding: the
// decoders copy every string they keep out of their input. A 200 that is
// unframed, oversized or ends early is an error, never a short answer.
// The two description answers, *MapGeoBroadcastFeedResponse and
// *GetBroadcastsResponse, are read by scanDescriptions (decodeAnswer);
// every other answer, and any input the scanner does not recognise, by
// json.Unmarshal.
func (c *Client) do(name string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.BaseURL+PathPrefix+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(SessionHeader, c.Session)
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	var data []byte
	switch n := httpResp.ContentLength; {
	case n >= 0 && n <= maxAnswerBody:
		buf := bodyPool.Get().(*bytes.Buffer)
		defer putBody(buf)
		buf.Reset()
		buf.Grow(int(n))
		data = buf.AvailableBuffer()[:n]
		if _, err := io.ReadFull(httpResp.Body, data); err != nil {
			return fmt.Errorf("api: %s: %d-byte answer: %w", name, n, err)
		}
	case httpResp.StatusCode == http.StatusOK:
		return fmt.Errorf("api: %s: answer declares %d bytes, not a length within %d", name, n, maxAnswerBody)
	default:
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, maxErrorDrain))
	}
	switch httpResp.StatusCode {
	case http.StatusOK:
		if resp == nil {
			return nil
		}
		return decodeAnswer(data, resp)
	case http.StatusTooManyRequests:
		c.rateLimited.Add(1)
		return ErrRateLimited{RetryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After"))}
	default:
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			code := e.Code
			if code == "" {
				code = CodeInternal
			}
			return &Error{HTTPStatus: httpResp.StatusCode, Code: code, Message: fmt.Sprintf("%s: %s", name, e.Error)}
		}
		return fmt.Errorf("api: %s: HTTP %d", name, httpResp.StatusCode)
	}
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// MapGeoBroadcastFeed queries the broadcasts visible in an area.
func (c *Client) MapGeoBroadcastFeed(req MapGeoBroadcastFeedRequest) (MapGeoBroadcastFeedResponse, error) {
	return Call(c, MapGeoBroadcastFeedEndpoint, req)
}

// GetBroadcasts fetches descriptions (with viewer counts) for IDs.
func (c *Client) GetBroadcasts(ids []string) (GetBroadcastsResponse, error) {
	resp := GetBroadcastsResponse{Broadcasts: make([]BroadcastDesc, 0, len(ids))}
	err := call(c, GetBroadcastsEndpoint, GetBroadcastsRequest{BroadcastIDs: ids}, &resp)
	return resp, err
}

// PlaybackMeta uploads end-of-session statistics.
func (c *Client) PlaybackMeta(stats PlaybackMeta) error {
	_, err := Call(c, PlaybackMetaEndpoint, PlaybackMetaRequest{Stats: stats})
	return err
}

// AccessVideo resolves the stream endpoint for a broadcast.
func (c *Client) AccessVideo(id string) (AccessVideoResponse, error) {
	return Call(c, AccessVideoEndpoint, AccessVideoRequest{BroadcastID: id})
}

// Teleport returns a random live broadcast id.
func (c *Client) Teleport() (string, error) {
	resp, err := Call(c, TeleportEndpoint, TeleportRequest{})
	return resp.BroadcastID, err
}
