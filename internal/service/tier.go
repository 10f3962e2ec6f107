package service

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"periscope/internal/hls"
)

// What every HTTP tier of the service shares: a loopback endpoint (origin,
// each POP, chat, API) and, for the two HLS tiers, a mount table.

// cdnDrainTimeout bounds an endpoint's graceful drain at shutdown: in-flight
// responses get this long to complete before connections are dropped.
const cdnDrainTimeout = 3 * time.Second

// No body timeouts: segment bodies on the mobile-profile links legitimately
// take seconds.
const (
	// A header block is one packet: 5 s covers every modelled access link
	// many times over, so a stalled half-request is not held for ever.
	readHeaderTimeout = 5 * time.Second
	// Idle keep-alives may sit for minutes (a viewer between polls).
	idleTimeout = 2 * time.Minute
)

// endpoint is one HTTP server on a loopback port; the zero value is one
// that was never started.
type endpoint struct {
	addr string // host:port
	srv  *http.Server
	// closing ends when close begins: what a handler that holds a request
	// open selects on, so the drain below never waits a hold out.
	closing context.Context
	stop    context.CancelFunc
}

// listen starts serving h on a fresh loopback port.
func (e *endpoint) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = ln.Addr().String()
	e.closing, e.stop = context.WithCancel(context.Background())
	e.srv = &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go e.srv.Serve(ln)
	return nil
}

func (e *endpoint) baseURL() string { return "http://" + e.addr }

// close drains gracefully — in-flight responses complete (up to
// cdnDrainTimeout) instead of being cut mid-body — then drops what is left.
func (e *endpoint) close() {
	if e.srv == nil {
		return
	}
	e.stop()
	ctx, cancel := context.WithTimeout(context.Background(), cdnDrainTimeout)
	defer cancel()
	if e.srv.Shutdown(ctx) != nil {
		e.srv.Close()
	}
}

// mounts is a tier's table of broadcasts: id → the segmenter the mount was
// made for and the tier's handler for it (an *hls.Origin at the origin, an
// *hls.Replica at a POP). The segmenter is the mount's identity, so an
// end-linger timer can tell an ended broadcast's mount from the one its
// relaunch made. The zero value is ready to use.
type mounts[T any] struct {
	mu sync.RWMutex
	m  map[string]mount[T]
}

type mount[T any] struct {
	seg *hls.Segmenter
	h   T
}

// register mounts id with the handler build returns. Re-registering the
// same segmenter is a no-op that keeps the current (warm) handler; a
// different segmenter replaces it (a broadcast re-going-live during an
// unregister linger must win over its ended predecessor). It returns the
// handler it took out of the table, the zero T when none.
func (t *mounts[T]) register(id string, seg *hls.Segmenter, build func() T) (old T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.m[id]
	if ok && cur.seg == seg {
		return old
	}
	if t.m == nil {
		t.m = map[string]mount[T]{}
	}
	t.m[id] = mount[T]{seg, build()}
	return cur.h
}

// unregister removes the mount — but only if it is still backed by seg, so
// a lingering end-timer cannot tear down a re-registered live broadcast. A
// nil seg unregisters unconditionally. It returns the handler it took out
// of the table, the zero T when none.
func (t *mounts[T]) unregister(id string, seg *hls.Segmenter) (old T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[id]; ok && (seg == nil || cur.seg == seg) {
		delete(t.m, id)
		old = cur.h
	}
	return old
}

// get returns id's handler (the zero T when not mounted).
func (t *mounts[T]) get(id string) T {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[id].h
}

func (t *mounts[T]) has(id string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.m[id]
	return ok
}

// each calls fn for every mount, under the read lock.
func (t *mounts[T]) each(fn func(id string, h T)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, e := range t.m {
		fn(id, e.h)
	}
}

// mountID parses the id out of "<prefix><id>/<file>"; "" on any other shape.
func mountID(path, prefix string) string {
	rest, ok := strings.CutPrefix(path, prefix)
	slash := strings.IndexByte(rest, '/')
	if !ok || slash < 0 {
		return ""
	}
	return rest[:slash]
}
