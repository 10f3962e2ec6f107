// Package netem emulates the access-network conditions the study imposed
// with the Linux tc command (§2): token-bucket bandwidth limiting,
// propagation delay, and byte metering on arbitrary net.Conn transports.
// Experiments wrap the viewer's connections in a Shaper to sweep the
// 0.5-10 Mbps limits of Figures 3 and 4.
package netem

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// TokenBucket is a thread-safe token bucket. Tokens are bytes.
type TokenBucket struct {
	mu       sync.Mutex
	rate     float64 // bytes per second
	burst    float64
	tokens   float64
	lastFill time.Time
}

// NewTokenBucket creates a bucket with the given rate (bytes/s) and burst
// size (bytes). A rate of 0 means unlimited.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, lastFill: time.Now()}
}

// Take consumes n bytes of tokens, sleeping long enough to keep the
// long-run rate at the configured limit. Debt is allowed (a single request
// larger than the burst is paced rather than dead-locked), matching how a
// tc token-bucket qdisc drains an oversized backlog.
func (tb *TokenBucket) Take(n int) {
	if tb == nil || tb.rate <= 0 {
		return
	}
	tb.mu.Lock()
	now := time.Now()
	tb.tokens += tb.rate * now.Sub(tb.lastFill).Seconds()
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.lastFill = now
	tb.tokens -= float64(n)
	var wait time.Duration
	if tb.tokens < 0 {
		wait = time.Duration(-tb.tokens / tb.rate * float64(time.Second))
	}
	tb.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// Shaper bundles the downlink/uplink rate limits and extra latency applied
// to a connection, plus shared byte meters.
type Shaper struct {
	// DownlinkBps and UplinkBps are limits in bits per second (0 = none).
	DownlinkBps float64
	UplinkBps   float64
	// Latency is one-way extra delay added to the first byte of each Read.
	Latency time.Duration

	downBucket *TokenBucket
	upBucket   *TokenBucket
	once       sync.Once

	mu       sync.Mutex
	bytesIn  int64
	bytesOut int64
}

// NewShaper builds a shaper limiting both directions to bps bits/second
// (the paper applied tc limits on the tethering host).
func NewShaper(bps float64) *Shaper {
	return &Shaper{DownlinkBps: bps, UplinkBps: bps}
}

func (s *Shaper) init() {
	s.once.Do(func() {
		if s.DownlinkBps > 0 {
			// Burst of 32 KB approximates a typical queue depth.
			s.downBucket = NewTokenBucket(s.DownlinkBps/8, 32*1024)
		}
		if s.UplinkBps > 0 {
			s.upBucket = NewTokenBucket(s.UplinkBps/8, 32*1024)
		}
	})
}

// BytesIn reports total bytes read through shaped connections.
func (s *Shaper) BytesIn() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesIn
}

// BytesOut reports total bytes written through shaped connections.
func (s *Shaper) BytesOut() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesOut
}

// Conn wraps nc with this shaper. Multiple conns share the same buckets,
// modelling a single bottleneck access link.
func (s *Shaper) Conn(nc net.Conn) net.Conn {
	s.init()
	return &shapedConn{Conn: nc, s: s}
}

type shapedConn struct {
	net.Conn
	s       *Shaper
	delayed bool
}

func (c *shapedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if !c.delayed && c.s.Latency > 0 {
			time.Sleep(c.s.Latency)
			c.delayed = true
		}
		c.s.downBucket.Take(n)
		c.s.mu.Lock()
		c.s.bytesIn += int64(n)
		c.s.mu.Unlock()
	}
	return n, err
}

func (c *shapedConn) Write(b []byte) (int, error) {
	c.s.upBucket.Take(len(b))
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.s.mu.Lock()
		c.s.bytesOut += int64(n)
		c.s.mu.Unlock()
	}
	return n, err
}

// Dialer returns a net.Dial-compatible function routing through the shaper.
func (s *Shaper) Dialer() func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		nc, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return s.Conn(nc), nil
	}
}

// HTTPClient returns an *http.Client whose connections pass through the
// shaper (used by the HLS client and the API/chat clients).
func (s *Shaper) HTTPClient() *http.Client {
	dial := s.Dialer()
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dial(network, addr)
			},
			// One bottleneck link: keep connection reuse on, as phones do.
			MaxIdleConnsPerHost: 8,
		},
	}
}

// Mbps converts megabits/second to bits/second for Shaper fields.
func Mbps(v float64) float64 { return v * 1e6 }

// AccessProfile bundles the bandwidth / RTT / loss figures for one class
// of mobile access network, matching the measurement conditions the paper
// swept in §5 (WiFi vs. cellular, tc-shaped bandwidth tiers). A profile
// is a template: NewLink stamps out an independently-seeded Link per
// viewer so cohorts on the same profile don't share a token bucket.
type AccessProfile struct {
	// Name identifies the profile in scenario reports ("3g", "wifi", ...).
	Name string
	// Bandwidth caps the downlink in bits per second (0 = uncapped).
	Bandwidth float64
	// RTT is the per-request round-trip time to the edge.
	RTT time.Duration
	// LossProb is the per-request loss probability (retried client-side).
	LossProb float64
}

// Canonical access profiles. The 3G figures model the congested cell the
// paper's worst stall ratios came from: per-request RTTs long enough that
// sequential playlist-poll + segment-fetch cycles fall behind real time,
// plus sub-bitrate bandwidth. 4G and WiFi step the same knobs toward the
// paper's low-stall conditions, so the expected stall-ratio ordering is
// 3G >= 4G >= WiFi.
var (
	Profile3G   = AccessProfile{Name: "3g", Bandwidth: Mbps(0.2), RTT: 250 * time.Millisecond, LossProb: 0.02}
	Profile4G   = AccessProfile{Name: "4g", Bandwidth: Mbps(4), RTT: 60 * time.Millisecond, LossProb: 0.005}
	ProfileWiFi = AccessProfile{Name: "wifi", Bandwidth: Mbps(20), RTT: 15 * time.Millisecond, LossProb: 0}
)

// Profiles maps profile names to presets for flag / scenario lookup.
var Profiles = map[string]AccessProfile{
	Profile3G.Name:   Profile3G,
	Profile4G.Name:   Profile4G,
	ProfileWiFi.Name: ProfileWiFi,
}

// NewLink stamps out a fresh Link shaped like the profile. seed fixes the
// loss RNG so one viewer's drop sequence replays exactly; distinct
// viewers should pass distinct seeds.
func (p AccessProfile) NewLink(seed int64) *Link {
	l := &Link{RTT: p.RTT, Bandwidth: p.Bandwidth}
	if p.LossProb > 0 {
		l.SetFault(FaultProfile{LossProb: p.LossProb, Seed: seed})
	}
	return l
}

// Link models one fixed wide-area path between two datacenters (POP →
// origin, POP → peer POP): a round-trip latency charged once per HTTP
// request plus an optional bandwidth cap paced over the response body,
// with request/byte metering. Where Shaper emulates a viewer's access
// link at the connection layer, Link shapes the CDN's internal fill
// paths at the request layer — keep-alive connection reuse must not let
// later fills skip the propagation delay.
type Link struct {
	// RTT is the modelled round-trip time charged to every request.
	RTT time.Duration
	// Bandwidth caps the response-body rate in bits per second (0 = no
	// cap). The bucket is shared by all requests on the link, modelling
	// one bottleneck path.
	Bandwidth float64

	once   sync.Once
	bucket *TokenBucket

	mu       sync.Mutex
	requests int64
	bytes    int64

	faultMu        sync.Mutex
	fault          FaultProfile
	rng            *rand.Rand
	blackholeUntil time.Time
	dropped        int64
	spikes         int64
}

// ErrBlackhole is the terminal error returned for every request sent
// while the link is inside a blackhole window.
var ErrBlackhole = errors.New("netem: link blackholed")

// ErrInjectedLoss is the transient error returned for a request the
// link's fault profile randomly dropped.
var ErrInjectedLoss = errors.New("netem: injected request loss")

// FaultProfile describes probabilistic degradation applied to a Link.
// All probabilities are in [0, 1] and evaluated per request with a
// deterministic seeded RNG so failure sequences replay exactly.
type FaultProfile struct {
	// LossProb drops a request outright with this probability; the
	// caller sees ErrInjectedLoss before any RTT is charged, modelling a
	// lost packet that times out client-side.
	LossProb float64
	// SpikeProb adds Spike extra latency to a request with this
	// probability, modelling transient congestion on the path.
	SpikeProb float64
	// Spike is the extra one-shot delay charged when a spike fires.
	Spike time.Duration
	// Seed fixes the RNG sequence (0 seeds from the profile itself so
	// two identical profiles still behave identically).
	Seed int64
}

// SetFault installs (or, with a zero profile, clears) the link's fault
// profile. Safe to call while requests are in flight.
func (l *Link) SetFault(p FaultProfile) {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	l.fault = p
	l.rng = rand.New(rand.NewSource(p.Seed + 1))
}

// BlackholeFor opens a hard outage window: every request on the link
// fails immediately with ErrBlackhole until d elapses or Restore is
// called. Windows are timestamps, not timers, so they need no cleanup.
func (l *Link) BlackholeFor(d time.Duration) {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	l.blackholeUntil = time.Now().Add(d)
}

// Restore closes any open blackhole window immediately.
func (l *Link) Restore() {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	l.blackholeUntil = time.Time{}
}

// Blackholed reports whether the link is currently inside an outage
// window.
func (l *Link) Blackholed() bool {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	return time.Now().Before(l.blackholeUntil)
}

// Dropped reports how many requests the link has failed by fault
// injection (loss and blackhole combined).
func (l *Link) Dropped() int64 {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	return l.dropped
}

// Spikes reports how many requests were hit with a latency spike.
func (l *Link) Spikes() int64 {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	return l.spikes
}

// admit applies the fault profile to one request: it returns a non-nil
// error for dropped requests and otherwise the extra latency to charge.
func (l *Link) admit() (time.Duration, error) {
	l.faultMu.Lock()
	defer l.faultMu.Unlock()
	if !l.blackholeUntil.IsZero() && time.Now().Before(l.blackholeUntil) {
		l.dropped++
		return 0, ErrBlackhole
	}
	if l.rng == nil {
		return 0, nil
	}
	if l.fault.LossProb > 0 && l.rng.Float64() < l.fault.LossProb {
		l.dropped++
		return 0, ErrInjectedLoss
	}
	if l.fault.SpikeProb > 0 && l.rng.Float64() < l.fault.SpikeProb {
		l.spikes++
		return l.fault.Spike, nil
	}
	return 0, nil
}

func (l *Link) init() {
	l.once.Do(func() {
		if l.Bandwidth > 0 {
			l.bucket = NewTokenBucket(l.Bandwidth/8, 64*1024)
		}
	})
}

// Requests reports how many HTTP requests traversed the link.
func (l *Link) Requests() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests
}

// Bytes reports response-body bytes transferred over the link.
func (l *Link) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Client returns an *http.Client whose requests pay the link's RTT and
// whose response bodies are paced at the link's bandwidth. Each Link has
// its own connection pool so per-link keep-alive mirrors a persistent
// inter-datacenter path.
func (l *Link) Client() *http.Client {
	return &http.Client{Transport: l.Transport(nil)}
}

// Transport wraps base (http.DefaultTransport-equivalent when nil) with
// the link's shaping.
func (l *Link) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = &http.Transport{MaxIdleConnsPerHost: 8}
	}
	return &linkTransport{l: l, base: base}
}

type linkTransport struct {
	l    *Link
	base http.RoundTripper
}

// CloseIdleConnections forwards to the underlying transport, so
// http.Client.CloseIdleConnections works through the shaping wrapper:
// a decommissioned POP must not strand its keep-alive sockets (their
// readLoop/writeLoop goroutines would outlive the owner).
func (t *linkTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *linkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.l.init()
	extra, err := t.l.admit()
	if err != nil {
		return nil, err
	}
	if delay := t.l.RTT + extra; delay > 0 {
		// One round trip covers request propagation plus first response
		// byte; body pacing below accounts for the rest.
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.l.mu.Lock()
	t.l.requests++
	t.l.mu.Unlock()
	resp.Body = &linkBody{ReadCloser: resp.Body, l: t.l}
	return resp, nil
}

// linkBody paces and meters a response body.
type linkBody struct {
	io.ReadCloser
	l *Link
}

func (b *linkBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.l.bucket.Take(n)
		b.l.mu.Lock()
		b.l.bytes += int64(n)
		b.l.mu.Unlock()
	}
	return n, err
}
