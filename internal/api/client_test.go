package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"periscope/internal/broadcastmodel"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// answer is one canned response: length -1 is an unframed body, the way a
// chunked answer arrives.
type answer struct {
	status int
	length int64
	header http.Header
	body   func() io.Reader
}

// answering returns a client whose every request gets a, with no socket
// between them.
func answering(a answer) *Client {
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		h := a.header
		if h == nil {
			h = http.Header{}
		}
		return &http.Response{StatusCode: a.status, ContentLength: a.length, Header: h,
			Body: io.NopCloser(a.body()), Request: r}, nil
	})}
	return NewClient("http://api.test", "sess", hc)
}

func text(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }

// heapBytes reports the bytes fn allocates.
func heapBytes(fn func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	fn()
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

func TestClientRefusesUnframedAnswer(t *testing.T) {
	c := answering(answer{status: http.StatusOK, length: -1, body: text(`{"broadcast_id":"x"}`)})
	if id, err := c.Teleport(); err == nil {
		t.Fatalf("unframed 200 decoded to %q, want an error", id)
	}
}

// TestClientRefusesOversizedAnswer: a declared length past the bound is
// refused before a buffer of that size exists.
func TestClientRefusesOversizedAnswer(t *testing.T) {
	c := answering(answer{status: http.StatusOK, length: maxAnswerBody + 1, body: text(`{"broadcast_id":"x"}`)})
	c.Teleport() // first-call setup is not the answer's cost
	var err error
	if n := heapBytes(func() { _, err = c.Teleport() }); n > maxAnswerBody/4 {
		t.Errorf("refusing a %d-byte answer allocated %d bytes", maxAnswerBody+1, n)
	}
	if err == nil {
		t.Fatal("answer past the bound decoded, want an error")
	}
}

func TestClientRefusesTruncatedAnswer(t *testing.T) {
	body := `{"broadcast_id":"x"}`
	c := answering(answer{status: http.StatusOK, length: int64(len(body)) + 10, body: text(body)})
	if id, err := c.Teleport(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 200: %q, %v; want io.ErrUnexpectedEOF", id, err)
	}
}

// countingReader is an endless body that counts what is read of it.
type countingReader struct{ n atomic.Int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.n.Add(int64(len(p)))
	return len(p), nil
}

// TestClientDrainsUnframedRefusal: a chunked 502 with no end is drained
// at most maxErrorDrain bytes, and the status still reaches the caller.
func TestClientDrainsUnframedRefusal(t *testing.T) {
	var body countingReader
	c := answering(answer{status: http.StatusBadGateway, length: -1, body: func() io.Reader { return io.LimitReader(&body, 1<<20) }})
	_, err := c.Teleport()
	if err == nil || !strings.Contains(err.Error(), "HTTP 502") {
		t.Errorf("chunked 502: %v, want the status error", err)
	}
	if n := body.n.Load(); n > maxErrorDrain {
		t.Errorf("read %d bytes of a chunked 502, want at most %d", n, maxErrorDrain)
	}
}

// TestClientRateLimitedCarriesRetryAfter: a 429, framed or not, is
// ErrRateLimited with the server's hint.
func TestClientRateLimitedCarriesRetryAfter(t *testing.T) {
	env := `{"error":"Too many requests","code":"rate_limited"}`
	for _, length := range []int64{-1, int64(len(env))} {
		c := answering(answer{status: http.StatusTooManyRequests, length: length,
			header: http.Header{"Retry-After": {"7"}}, body: text(env)})
		_, err := c.Teleport()
		var rl ErrRateLimited
		if !errors.As(err, &rl) || rl.RetryAfter != 7*time.Second {
			t.Errorf("429 with length %d: %v, want ErrRateLimited{7s}", length, err)
		}
		if c.RateLimited() != 1 {
			t.Errorf("429 with length %d: RateLimited() = %d, want 1", length, c.RateLimited())
		}
	}
}

func TestClientDecodesFramedErrorEnvelope(t *testing.T) {
	env := `{"error":"no such broadcast","code":"not_found"}`
	c := answering(answer{status: http.StatusNotFound, length: int64(len(env)), body: text(env)})
	_, err := c.AccessVideo("gone")
	assertCode(t, err, CodeNotFound, http.StatusNotFound)
}

// alternating answers odd requests with a and even ones with b.
func alternating(a, b string) *Client {
	var n atomic.Int64
	return answering(answer{status: http.StatusOK, length: int64(len(a)), body: func() io.Reader {
		if n.Add(1)%2 == 1 {
			return strings.NewReader(a)
		}
		return strings.NewReader(b)
	}})
}

// TestClientAnswerDoesNotAlias: the second call reads into the buffer the
// first one returned to the pool; the first answer's strings must not
// change with it.
func TestClientAnswerDoesNotAlias(t *testing.T) {
	c := alternating(`{"broadcast_id":"aaaaaaaa"}`, `{"broadcast_id":"bbbbbbbb"}`)
	first, err := c.Teleport()
	if err != nil {
		t.Fatal(err)
	}
	if second, err := c.Teleport(); err != nil || second != "bbbbbbbb" {
		t.Fatalf("second answer %q, %v", second, err)
	}
	if first != "aaaaaaaa" {
		t.Errorf("first answer became %q after the second call", first)
	}
}

// reentrant issues a second call from inside its own decode, so that
// call's answer is read while the first answer is still being decoded.
type reentrant struct {
	c   *Client
	err error
}

func (r *reentrant) UnmarshalJSON(b []byte) error {
	before := string(b)
	if _, r.err = r.c.Teleport(); r.err != nil {
		return nil
	}
	if string(b) != before {
		r.err = errors.New("answer overwritten during its decode: " + before + " → " + string(b))
	}
	return nil
}

// TestClientBufferOutlivesDecode: an answer's buffer goes back to the pool
// only after its decode, or the call the decode makes would read into it.
func TestClientBufferOutlivesDecode(t *testing.T) {
	c := alternating(`{"broadcast_id":"aaaaaaaa"}`, `{"broadcast_id":"bbbbbbbb"}`)
	ep := Endpoint[TeleportRequest, reentrant]{Name: TeleportEndpoint.Name}
	for i := 0; i < 8; i++ {
		r := reentrant{c: c}
		if err := call(c, ep, TeleportRequest{}, &r); err != nil {
			t.Fatal(err)
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestClientDecodeMatchesHandler: for each of the five endpoints, what the
// client decodes from the gateway's framed answer equals what the handler
// returned. Two servers with one seed draw the same teleports.
func TestClientDecodeMatchesHandler(t *testing.T) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 400
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	scfg := DefaultServerConfig()
	scfg.RateLimit = 0
	wire, direct := NewServer(pop, stubVideo{}, scfg), NewServer(pop, stubVideo{}, scfg)
	var last []byte // the body of the gateway's latest answer
	c := NewClient("http://api.test", "sess", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		wire.ServeHTTP(rec, r)
		last = rec.Body.Bytes()
		return rec.Result(), nil
	})})
	twin := func(name string, got, want any, err error, apiErr *Error) {
		t.Helper()
		if err != nil || apiErr != nil {
			t.Fatalf("%s: client %v, handler %v", name, err, apiErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: client decoded %+v, handler returned %+v", name, got, want)
		}
	}
	// The scanner itself, not json.Unmarshal behind it, reads every
	// description answer the gateway writes, and the client's decode
	// took it: the scanner interns the states, where json.Unmarshal
	// allocates each one.
	scanned := func(name string, got, want []BroadcastDesc) {
		t.Helper()
		var ds []BroadcastDesc
		if !scanDescriptions(last, &ds) || !reflect.DeepEqual(ds, want) {
			t.Errorf("%s: the scanner declined the gateway's answer %q", name, last)
		}
		for _, d := range got {
			if p := unsafe.StringData(d.State); p != unsafe.StringData("RUNNING") && p != unsafe.StringData("ENDED") {
				t.Errorf("%s: the client decoded state %q by json.Unmarshal, not the scanner", name, d.State)
				return
			}
		}
	}

	var ids []string
	for _, b := range pop.Live() {
		if ids = append(ids, b.ID); len(ids) == maxBroadcastIDs {
			break
		}
	}
	for _, n := range []int{0, 1, 20, len(ids)} {
		req := GetBroadcastsRequest{BroadcastIDs: ids[:n]}
		got, err := c.GetBroadcasts(req.BroadcastIDs)
		want, apiErr := direct.getBroadcasts(&req)
		twin("getBroadcasts of "+strconv.Itoa(n), got, want, err, apiErr)
		scanned("getBroadcasts of "+strconv.Itoa(n), got.Broadcasts, want.Broadcasts)
	}
	for _, req := range []MapGeoBroadcastFeedRequest{
		{P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180},
		{P1Lat: -90, P1Lng: -180, P2Lat: 90, P2Lng: 180, IncludeReplay: true},
		{P1Lat: 40, P1Lng: -75, P2Lat: 41, P2Lng: -74},
	} {
		got, err := c.MapGeoBroadcastFeed(req)
		want, apiErr := direct.mapGeo(&req)
		twin("mapGeoBroadcastFeed", got, want, err, apiErr)
		scanned("mapGeoBroadcastFeed", got.Broadcasts, want.Broadcasts)
	}
	for i := 0; i < 5; i++ {
		got, err := Call(c, TeleportEndpoint, TeleportRequest{})
		want, apiErr := direct.teleport(&TeleportRequest{})
		twin("teleport", got, want, err, apiErr)
	}
	req := AccessVideoRequest{BroadcastID: ids[0]}
	got, err := c.AccessVideo(req.BroadcastID)
	want, apiErr := direct.accessVideo(&req)
	twin("accessVideo", got, want, err, apiErr)
	meta := PlaybackMetaRequest{Stats: PlaybackMeta{BroadcastID: ids[0], Protocol: "HLS", NStallEvents: 2, PlayTimeSec: 60}}
	gotMeta, err := Call(c, PlaybackMetaEndpoint, meta)
	wantMeta, apiErr := direct.playbackMeta(&meta)
	twin("playbackMeta", gotMeta, wantMeta, err, apiErr)
	if !reflect.DeepEqual(wire.PlaybackMetas(), direct.PlaybackMetas()) {
		t.Errorf("playbackMeta: the gateway stored %+v, the handler %+v", wire.PlaybackMetas(), direct.PlaybackMetas())
	}

	// The bound's reasoning: the largest answer the default caps allow
	// sits far below it.
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(GetBroadcastsRequest{BroadcastIDs: ids})
	wire.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, GetBroadcastsEndpoint.Path(), bytes.NewReader(body)))
	if n := rec.Body.Len(); n > maxAnswerBody/32 {
		t.Errorf("a getBroadcasts of %d ids is %d bytes, too close to maxAnswerBody (%d)", len(ids), n, maxAnswerBody)
	}
}

// FuzzClientAnswer feeds an arbitrary status, declared length and body
// through Client.do. No answer may panic it or make it allocate more
// than a small constant times what it may read, min(declared,
// maxAnswerBody); a 200 is accepted only when its length is declared,
// within the bound and all there. The decode target is teleport's
// one-string answer, so the bytes measured are the read's, not reflect
// growing a slice of descriptions.
func FuzzClientAnswer(f *testing.F) {
	f.Add(uint16(http.StatusBadGateway), int64(-1), bytes.Repeat([]byte("x"), 2*maxErrorDrain))
	f.Fuzz(func(t *testing.T, status uint16, declared int64, body []byte) {
		code := int(status)
		if code < 200 || code > 599 {
			code = 200 + code%400
		}
		c := answering(answer{status: code, length: declared, body: func() io.Reader { return bytes.NewReader(body) }})
		var err error
		allocated := heapBytes(func() { _, err = c.Teleport() })
		readable := uint64(min(max(declared, 0), maxAnswerBody))
		if limit := 16<<10 + 4*readable; allocated > limit {
			t.Fatalf("status %d, declared %d, %d-byte body: allocated %d bytes, limit %d",
				code, declared, len(body), allocated, limit)
		}
		if code == http.StatusOK && err == nil && (declared < 0 || declared > maxAnswerBody || declared > int64(len(body))) {
			t.Fatalf("200 declaring %d bytes with a %d-byte body was accepted", declared, len(body))
		}
	})
}
