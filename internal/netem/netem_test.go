package netem

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTokenBucketUnlimited(t *testing.T) {
	tb := NewTokenBucket(0, 0)
	done := make(chan struct{})
	go func() {
		tb.Take(1 << 30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unlimited bucket blocked")
	}
}

func TestTokenBucketRate(t *testing.T) {
	// 1 MB/s, tiny burst: taking 200 KB must take roughly 0.2 s.
	tb := NewTokenBucket(1e6, 10_000)
	start := time.Now()
	for i := 0; i < 20; i++ {
		tb.Take(10_000)
	}
	elapsed := time.Since(start)
	if elapsed < 120*time.Millisecond || elapsed > 600*time.Millisecond {
		t.Errorf("200KB at 1MB/s took %v, want ~190ms", elapsed)
	}
}

func TestShaperLimitsThroughput(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 400_000) // 3.2 Mbit
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(payload)
	}()

	s := NewShaper(Mbps(8)) // 8 Mbps => ~0.4 s for 3.2 Mbit
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	shaped := s.Conn(nc)
	defer shaped.Close()
	start := time.Now()
	got, err := io.ReadAll(shaped)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes", len(got))
	}
	if elapsed < 250*time.Millisecond {
		t.Errorf("download finished in %v; shaping ineffective", elapsed)
	}
	if s.BytesIn() != int64(len(payload)) {
		t.Errorf("BytesIn = %d", s.BytesIn())
	}
}

func TestShaperLatency(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write([]byte("x"))
	}()
	s := &Shaper{Latency: 100 * time.Millisecond}
	nc, _ := net.Dial("tcp", ln.Addr().String())
	shaped := s.Conn(nc)
	defer shaped.Close()
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(shaped, buf); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 90*time.Millisecond {
		t.Errorf("first byte after %v, want >= 100ms", e)
	}
}

func TestLinkRTTAndMetering(t *testing.T) {
	payload := []byte("segment-bytes")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()

	l := &Link{RTT: 60 * time.Millisecond}
	cli := l.Client()
	for i := 0; i < 2; i++ {
		// Every request pays the RTT, including ones reusing a keep-alive
		// connection — that is the difference from Shaper's per-conn delay.
		start := time.Now()
		resp, err := cli.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != string(payload) {
			t.Fatalf("body = %q, err = %v", body, err)
		}
		if e := time.Since(start); e < 55*time.Millisecond {
			t.Errorf("request %d completed in %v, want >= 60ms", i, e)
		}
	}
	if got := l.Requests(); got != 2 {
		t.Errorf("Requests = %d, want 2", got)
	}
	if got := l.Bytes(); got != int64(2*len(payload)) {
		t.Errorf("Bytes = %d, want %d", got, 2*len(payload))
	}
}

func TestLinkBandwidthPacesBody(t *testing.T) {
	payload := make([]byte, 200_000) // 1.6 Mbit
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()

	l := &Link{Bandwidth: Mbps(8)} // ~0.2 s for 1.6 Mbit
	start := time.Now()
	resp, err := l.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(got) != len(payload) {
		t.Fatalf("read %d bytes, err %v", len(got), err)
	}
	if e := time.Since(start); e < 100*time.Millisecond {
		t.Errorf("download finished in %v; link pacing ineffective", e)
	}
}

func TestLinkCancelledDuringRTT(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	l := &Link{RTT: 5 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := l.Client().Do(req); err == nil {
		t.Fatal("want context error during RTT wait")
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("cancellation took %v; RTT sleep not interruptible", e)
	}
	if l.Requests() != 0 {
		t.Errorf("cancelled request was counted")
	}
}

func TestLinkBlackholeWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	l := &Link{}
	cli := l.Client()
	l.BlackholeFor(time.Hour)
	if !l.Blackholed() {
		t.Fatal("link not blackholed after BlackholeFor")
	}
	if _, err := cli.Get(srv.URL); !errors.Is(err, ErrBlackhole) {
		t.Fatalf("err = %v, want ErrBlackhole", err)
	}
	if l.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", l.Dropped())
	}
	if l.Requests() != 0 {
		t.Errorf("blackholed request was counted as traversing the link")
	}
	l.Restore()
	if l.Blackholed() {
		t.Fatal("link still blackholed after Restore")
	}
	resp, err := cli.Get(srv.URL)
	if err != nil {
		t.Fatalf("request after Restore: %v", err)
	}
	resp.Body.Close()
}

func TestLinkFaultProfileLossIsDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	run := func(seed int64) []bool {
		l := &Link{}
		l.SetFault(FaultProfile{LossProb: 0.5, Seed: seed})
		cli := l.Client()
		var outcomes []bool
		for i := 0; i < 40; i++ {
			resp, err := cli.Get(srv.URL)
			if err != nil {
				if !errors.Is(err, ErrInjectedLoss) {
					t.Fatalf("unexpected error: %v", err)
				}
				outcomes = append(outcomes, false)
				continue
			}
			resp.Body.Close()
			outcomes = append(outcomes, true)
		}
		return outcomes
	}

	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	var losses int
	for _, ok := range a {
		if !ok {
			losses++
		}
	}
	if losses < 8 || losses > 32 {
		t.Errorf("losses = %d of 40 at p=0.5; RNG not applied per request", losses)
	}

	l := &Link{}
	l.SetFault(FaultProfile{LossProb: 0.5, Seed: 7})
	cli := l.Client()
	for range a {
		if resp, err := cli.Get(srv.URL); err == nil {
			resp.Body.Close()
		}
	}
	if got := l.Dropped(); got != int64(losses) {
		t.Errorf("Dropped = %d, want %d", got, losses)
	}
}

func TestLinkLatencySpike(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	l := &Link{}
	// SpikeProb 1: every request pays the spike.
	l.SetFault(FaultProfile{SpikeProb: 1, Spike: 80 * time.Millisecond, Seed: 1})
	start := time.Now()
	resp, err := l.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := time.Since(start); e < 70*time.Millisecond {
		t.Errorf("spiked request completed in %v, want >= 80ms", e)
	}
	if l.Spikes() != 1 {
		t.Errorf("Spikes = %d, want 1", l.Spikes())
	}
	// Clearing the profile removes the spike.
	l.SetFault(FaultProfile{})
	start = time.Now()
	resp, err = l.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := time.Since(start); e > 60*time.Millisecond {
		t.Errorf("request after clearing profile took %v", e)
	}
}

func TestLinkBlackholeZeroDuration(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	l := &Link{}
	// A zero-duration window sets blackholeUntil to now: by the time any
	// request evaluates admit(), the window has already closed. The link
	// must not drop anything and must not report Blackholed.
	l.BlackholeFor(0)
	if l.Blackholed() {
		t.Fatal("zero-duration window left the link blackholed")
	}
	resp, err := l.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("request after zero-duration window: %v", err)
	}
	resp.Body.Close()
	if l.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", l.Dropped())
	}

	// Same for a negative duration (a window that closed in the past).
	l.BlackholeFor(-time.Hour)
	if l.Blackholed() {
		t.Fatal("negative-duration window left the link blackholed")
	}
}

func TestLinkBlackholeOverlappingWindows(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	// Windows are absolute deadlines, not accumulating timers: the latest
	// call wins outright. A long window followed by a short one shrinks
	// the outage.
	l := &Link{}
	l.BlackholeFor(time.Hour)
	l.BlackholeFor(30 * time.Millisecond)
	if !l.Blackholed() {
		t.Fatal("link should be blackholed inside the second window")
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Blackholed() {
		if time.Now().After(deadline) {
			t.Fatal("short overlapping window never expired; the hour window survived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := l.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("request after shortened window: %v", err)
	}
	resp.Body.Close()

	// And a short window followed by a long one extends it.
	l2 := &Link{}
	l2.BlackholeFor(time.Millisecond)
	l2.BlackholeFor(time.Hour)
	time.Sleep(10 * time.Millisecond)
	if !l2.Blackholed() {
		t.Fatal("extending window was clipped by the earlier short window")
	}
	if _, err := l2.Client().Get(srv.URL); !errors.Is(err, ErrBlackhole) {
		t.Fatalf("err = %v, want ErrBlackhole inside extended window", err)
	}
}

func TestLinkLossProbabilityBoundaries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	// LossProb 0 must never drop: the admit path guards on > 0 before
	// consuming randomness, so an explicit zero profile behaves exactly
	// like no profile at all.
	l0 := &Link{}
	l0.SetFault(FaultProfile{LossProb: 0, Seed: 42})
	cli := l0.Client()
	for i := 0; i < 50; i++ {
		resp, err := cli.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d dropped at LossProb=0: %v", i, err)
		}
		resp.Body.Close()
	}
	if l0.Dropped() != 0 {
		t.Errorf("Dropped = %d at LossProb=0, want 0", l0.Dropped())
	}

	// LossProb 1 must always drop: Float64 is in [0, 1), strictly below 1.
	l1 := &Link{}
	l1.SetFault(FaultProfile{LossProb: 1, Seed: 42})
	cli = l1.Client()
	for i := 0; i < 50; i++ {
		if _, err := cli.Get(srv.URL); !errors.Is(err, ErrInjectedLoss) {
			t.Fatalf("request %d survived LossProb=1: err = %v", i, err)
		}
	}
	if got := l1.Dropped(); got != 50 {
		t.Errorf("Dropped = %d at LossProb=1, want 50", got)
	}
	if got := l1.Requests(); got != 0 {
		t.Errorf("Requests = %d; dropped requests must not count as traversals", got)
	}
}

func TestAccessProfilePresets(t *testing.T) {
	for _, name := range []string{"3g", "4g", "wifi"} {
		p, ok := Profiles[name]
		if !ok {
			t.Fatalf("preset %q missing from Profiles", name)
		}
		if p.Name != name {
			t.Errorf("preset %q has Name %q", name, p.Name)
		}
	}
	// The stall-ratio ordering the scenario asserts needs monotone knobs.
	if !(Profile3G.RTT > Profile4G.RTT && Profile4G.RTT > ProfileWiFi.RTT) {
		t.Error("RTT not strictly decreasing 3G > 4G > WiFi")
	}
	if !(Profile3G.Bandwidth < Profile4G.Bandwidth && Profile4G.Bandwidth < ProfileWiFi.Bandwidth) {
		t.Error("bandwidth not strictly increasing 3G < 4G < WiFi")
	}
	if !(Profile3G.LossProb >= Profile4G.LossProb && Profile4G.LossProb >= ProfileWiFi.LossProb) {
		t.Error("loss not monotone 3G >= 4G >= WiFi")
	}

	l := Profile3G.NewLink(7)
	if l.RTT != Profile3G.RTT || l.Bandwidth != Profile3G.Bandwidth {
		t.Errorf("NewLink produced RTT %v bandwidth %v", l.RTT, l.Bandwidth)
	}
	// Loss must be armed and deterministic per seed.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	run := func(seed int64) []bool {
		lk := AccessProfile{Name: "lossy", LossProb: 0.5}.NewLink(seed)
		cli := lk.Client()
		var out []bool
		for i := 0; i < 30; i++ {
			resp, err := cli.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed profile links diverged at request %d", i)
		}
	}
}

func TestMbps(t *testing.T) {
	if Mbps(2) != 2e6 {
		t.Errorf("Mbps(2) = %v", Mbps(2))
	}
}
