package hls

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ClientConfig configures the HLS polling client.
type ClientConfig struct {
	// BaseURL is the directory URL containing playlist.m3u8.
	BaseURL string
	// PollInterval between playlist refreshes; defaults to half the target
	// duration as typical players do.
	PollInterval time.Duration
	// Parallelism is the number of concurrent segment connections. The
	// paper notes HLS "may sometimes use multiple connections to different
	// servers in parallel"; >1 enables that behaviour.
	Parallelism int
	// HTTPClient may carry a bandwidth-shaped transport.
	HTTPClient *http.Client
	// OnSegment is invoked for every downloaded segment, in sequence order.
	OnSegment func(FetchedSegment)
}

// Client downloads a live HLS stream until the context ends or the
// playlist is marked ended.
type Client struct {
	cfg  ClientConfig
	http *http.Client

	mu      sync.Mutex
	fetched map[int]FetchedSegment
	failed  map[int]bool
	next    int
	// Bytes counts total payload bytes downloaded (playlists + segments).
	Bytes int64
	// PlaylistFetches counts playlist polls (each is one HTTP request).
	PlaylistFetches int
}

// NewClient validates cfg and returns a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultSegmentTarget / 2
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{cfg: cfg, http: hc, fetched: map[int]FetchedSegment{}, failed: map[int]bool{}, next: -1}
}

// Run polls the playlist and fetches segments until ctx is cancelled or
// the stream ends. It returns the number of segments delivered.
func (c *Client) Run(ctx context.Context) (int, error) {
	delivered := 0
	sem := make(chan struct{}, c.cfg.Parallelism)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		pl, err := c.fetchPlaylist(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return delivered, nil
			}
			return delivered, err
		}
		for _, seg := range pl.Segments {
			seg := seg
			c.mu.Lock()
			if c.next == -1 {
				// Live join: start from the newest segment in the window,
				// as live players do to minimise latency.
				c.next = pl.Segments[len(pl.Segments)-1].Sequence
			}
			_, have := c.fetched[seg.Sequence]
			shouldFetch := !have && seg.Sequence >= c.next
			c.mu.Unlock()
			if !shouldFetch {
				continue
			}
			c.mu.Lock()
			c.fetched[seg.Sequence] = FetchedSegment{} // reserve
			c.mu.Unlock()
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				fs, err := c.fetchSegment(ctx, seg)
				c.mu.Lock()
				if err != nil {
					// Expired or unreachable: skip it rather than stalling
					// the delivery pipeline forever.
					delete(c.fetched, seg.Sequence)
					c.failed[seg.Sequence] = true
				} else {
					c.fetched[seg.Sequence] = fs
				}
				c.mu.Unlock()
			}()
		}
		// Deliver contiguous completed segments in order.
		wg.Wait()
		delivered += c.deliverReady()
		if pl.Ended {
			return delivered, nil
		}
		select {
		case <-ctx.Done():
			return delivered, nil
		case <-time.After(c.cfg.PollInterval):
		}
	}
}

func (c *Client) deliverReady() int {
	c.mu.Lock()
	var ready []FetchedSegment
	for {
		if c.failed[c.next] {
			delete(c.failed, c.next)
			c.next++
			continue
		}
		fs, ok := c.fetched[c.next]
		if !ok || fs.Data == nil {
			break
		}
		ready = append(ready, fs)
		delete(c.fetched, c.next)
		c.next++
	}
	c.mu.Unlock()
	sort.Slice(ready, func(i, j int) bool { return ready[i].Sequence < ready[j].Sequence })
	for _, fs := range ready {
		if c.cfg.OnSegment != nil {
			c.cfg.OnSegment(fs)
		}
	}
	return len(ready)
}

func (c *Client) fetchPlaylist(ctx context.Context) (MediaPlaylist, error) {
	data, err := get(ctx, c.http, c.cfg.BaseURL+"/playlist.m3u8")
	if err != nil {
		return MediaPlaylist{}, err
	}
	c.mu.Lock()
	c.Bytes += int64(len(data))
	c.PlaylistFetches++
	c.mu.Unlock()
	return ParseMediaPlaylist(data)
}

func (c *Client) fetchSegment(ctx context.Context, seg Segment) (FetchedSegment, error) {
	start := time.Now()
	data, err := get(ctx, c.http, c.cfg.BaseURL+"/"+seg.URI)
	if err != nil {
		return FetchedSegment{}, err
	}
	c.mu.Lock()
	c.Bytes += int64(len(data))
	c.mu.Unlock()
	return FetchedSegment{
		Sequence:   seg.Sequence,
		Duration:   time.Duration(seg.Duration * float64(time.Second)),
		Data:       data,
		FetchStart: start,
		FetchEnd:   time.Now(),
	}, nil
}
