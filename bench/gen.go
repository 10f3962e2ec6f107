package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/mpegts"
)

// numWorkers is the generator's size on every machine: two goroutines, each
// holding at most one open connection. It is a constant, not GOMAXPROCS, so
// the offered load is the same wherever the benchmark runs.
const numWorkers = 2

// workerLog is one generator goroutine's account of what it did. ops and
// bytes are atomics because the window sampler reads them while the worker
// runs; everything else is the worker's own until the window has ended.
type workerLog struct {
	ops   atomic.Int64 // completed and verified ops
	bytes atomic.Int64 // payload bytes delivered to this client

	attempted int64
	failed    int64
	lat       []latSample // primary-op latencies, in completion order
	errs      []error     // first few failures, for the report
}

// latSample is one primary-op latency and when, since process start, the op
// completed.
type latSample struct {
	end time.Duration
	ms  float64
}

// latency records the primary op's latency; end is when it completed.
func (l *workerLog) latency(start, end time.Time) {
	l.lat = append(l.lat, latSample{end: end.Sub(processStart), ms: float64(end.Sub(start)) / float64(time.Millisecond)})
}

// done records one completed, verified op.
func (l *workerLog) done(payload int) {
	l.attempted++
	l.ops.Add(1)
	l.bytes.Add(int64(payload))
}

// fail records one attempted op that failed, was refused, or was corrupt.
func (l *workerLog) fail(err error) {
	l.attempted++
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

// runWorkers runs fn on exactly numWorkers goroutines and waits for them.
func runWorkers(fn func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(numWorkers)
	for i := 0; i < numWorkers; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// httpWorker is one worker's HTTP client: a private keep-alive transport
// limited to one connection, and one reusable body buffer. Reading 200 KB
// segments with io.ReadAll made the generator an order of magnitude more
// expensive than the server it measures.
type httpWorker struct {
	tr     *http.Transport
	client *http.Client
	buf    []byte
}

// newTransport is a worker's private keep-alive transport: one idle
// connection per host, closed by its owner on exit.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func newHTTPWorker() *httpWorker {
	tr := newTransport()
	return &httpWorker{
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		buf:    make([]byte, 0, 512<<10),
	}
}

func (w *httpWorker) close() { w.tr.CloseIdleConnections() }

// get fetches url into the worker's buffer. The returned body is valid
// until the next get.
func (w *httpWorker) get(url string) ([]byte, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := w.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			w.buf = buf
			return nil, err
		}
	}
	w.buf = buf
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return buf, nil
}

// countingTransport counts response-body bytes for clients whose bodies the
// benchmark does not read itself (api.Client).
type countingTransport struct {
	base  http.RoundTripper
	bytes *atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, bytes: t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	bytes *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes.Add(int64(n))
	return n, err
}

// tsPacket is the MPEG-TS packet size; every packet starts with tsSync.
const (
	tsPacket = 188
	tsSync   = 0x47
)

// verifyTS checks that a segment body is whole transport stream: a
// multiple of 188 bytes with a sync byte at every packet start. deep
// additionally reassembles every elementary stream.
func verifyTS(body []byte, deep bool) error {
	if len(body) == 0 || len(body)%tsPacket != 0 {
		return fmt.Errorf("segment of %d bytes is not whole TS packets", len(body))
	}
	for off := 0; off < len(body); off += tsPacket {
		if body[off] != tsSync {
			return fmt.Errorf("segment lost TS sync at byte %d", off)
		}
	}
	if deep {
		units, err := mpegts.DemuxAll(body)
		if err != nil {
			return fmt.Errorf("segment does not demux: %w", err)
		}
		if len(units) == 0 {
			return errors.New("segment demuxes to no access units")
		}
	}
	return nil
}
