package main

// The benchmark's schema: workloads, end-to-end metrics (printed by an
// untraced run) and per-layer metrics (printed by a traced run).
// BENCHMARK.json at the repo root carries the same names, units and
// bounds; bench_test.go fails when the two drift apart.

type workloadSpec struct {
	name string
	why  string
}

type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (unused for
	// per-layer metrics). Each value is backed by the A/A spreads recorded
	// in README.md.
	bound float64
}

var workloadSpecs = []workloadSpec{
	{"edge-hot", "four hot broadcasts served from one warm edge: POP front, replica hit path and stale-while-revalidate playlists do the work, ingest and fills almost none"},
	{"live-tail", "32 live broadcasts with one paced viewer each: every segment is filled once and served once, so ingest, packaging, fills and playlist staleness dominate"},
	{"api-mix", "the crawler and app control plane: JSON gateway, sharded limiter and area queries at closed-loop saturation while the media layers idle"},
	{"chat-room", "one 1000-member chat room below the visibility cap: chat fan-out and WebSocket framing do the work, nothing else runs"},
}

// Every workload reports every end-to-end metric (the driver requires it),
// so the names are generic and README.md says what "op" means per workload:
// edge-hot a segment GET, live-tail a segment delivered capture-to-screen,
// api-mix an API request, chat-room a message echoed to its sender.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_peak_MB", "MB", "lower", 0.15},
	{"alloc_KB_per_op", "KB", "lower", 0.15},
}

var perLayer = []metricSpec{
	// Generator spans (G) around the edge calls.
	{"hls.edge_segment_get_p50_us", "us", "lower", 0},
	{"hls.edge_segment_get_p99_us", "us", "lower", 0},
	{"hls.edge_playlist_get_p50_us", "us", "lower", 0},
	{"hls.edge_playlist_get_p99_us", "us", "lower", 0},
	{"hls.playlist_staleness_p50_ms", "ms", "lower", 0},
	// Counter deltas (C) of the CDN over the traced window.
	{"hls.hit_ratio", "ratio", "higher", 0},
	{"hls.fills", "count", "lower", 0},
	{"hls.origin_fills", "count", "lower", 0},
	{"hls.peer_fills", "count", "higher", 0},
	{"hls.fill_bytes", "bytes", "lower", 0},
	{"hls.single_flight_hits", "count", "higher", 0},
	{"hls.fill_cap_waits", "count", "lower", 0},
	{"hls.evictions", "count", "lower", 0},
	{"hls.origin_fills_per_segment", "ratio", "lower", 0},
	{"hls.stale_serves", "count", "lower", 0},
	{"hls.playlist_refreshes", "count", "lower", 0},
	{"hls.max_playlist_age_ms", "ms", "lower", 0},
	{"hls.fill_retries", "count", "lower", 0},
	{"hls.fill_errors", "count", "lower", 0},
	{"hls.negative_hits", "count", "lower", 0},
	{"service.origin_segment_requests", "count", "lower", 0},
	{"service.origin_playlist_requests", "count", "lower", 0},
	{"service.reroutes", "count", "lower", 0},
	{"service.fanout_drops", "count", "lower", 0},
	{"service.fanout_resyncs", "count", "lower", 0},
	{"service.access_video_direct_p50_us", "us", "lower", 0},
	// Layer pass (L): one seeded media stream through each layer's public
	// functions.
	{"media.encode_ns_per_frame", "ns", "lower", 0},
	{"flv.tag_marshal_ns", "ns", "lower", 0},
	{"rtmp.chunk_write_MBps", "MB/s", "higher", 0},
	{"rtmp.chunk_read_MBps", "MB/s", "higher", 0},
	{"mpegts.mux_MBps", "MB/s", "higher", 0},
	{"mpegts.demux_MBps", "MB/s", "higher", 0},
	{"hls.segmenter_write_ns_per_frame", "ns", "lower", 0},
	{"hls.playlist_marshal_ns", "ns", "lower", 0},
	{"hls.playlist_parse_ns", "ns", "lower", 0},
	{"hls.replica_serve_hit_ns", "ns", "lower", 0},
	{"api.ratelimiter_take_ns", "ns", "lower", 0},
	{"chat.broadcast_inline_ns", "ns", "lower", 0},
	{"chat.heart_tap_ns", "ns", "lower", 0},
	{"websocket.prepare_ns", "ns", "lower", 0},
	{"websocket.write_read_ns", "ns", "lower", 0},
	// API gateway spans (G) and counters (C).
	{"api.access_video_p50_us", "us", "lower", 0},
	{"api.map_geo_p50_us", "us", "lower", 0},
	{"api.get_broadcasts_p50_us", "us", "lower", 0},
	{"api.teleport_p50_us", "us", "lower", 0},
	{"api.playback_meta_p50_us", "us", "lower", 0},
	{"api.requests", "count", "higher", 0},
	{"api.errors", "count", "lower", 0},
	{"api.rate_limited", "count", "lower", 0},
	// Chat spans (G) and counters (C).
	{"chat.echo_p50_us", "us", "lower", 0},
	{"chat.echo_p99_us", "us", "lower", 0},
	{"chat.deliveries_per_s", "1/s", "higher", 0},
	{"chat.messages_in", "count", "higher", 0},
	{"chat.messages_out", "count", "higher", 0},
	{"chat.drops", "count", "lower", 0},
	{"chat.drop_ratio", "ratio", "lower", 0},
	{"chat.sampled_out", "count", "lower", 0},
	{"chat.heart_taps", "count", "higher", 0},
	{"chat.heart_deltas", "count", "lower", 0},
	{"chat.presence_updates", "count", "lower", 0},
	{"chat.send_queue_depth_max", "count", "lower", 0},
	// Viewer-side replay of the live-tail chunks through the player model.
	{"player.stall_ratio", "ratio", "lower", 0},
	{"player.playback_latency_ms", "ms", "lower", 0},
	// Validity of the run, not the system.
	{"gen.join_p50_ms", "ms", "lower", 0},
	{"gen.op_p99_ms", "ms", "lower", 0},
	{"gen.fail_ratio", "ratio", "lower", 0},
	{"gen.self_ratio", "ratio", "lower", 0},
	{"gen.sched_late_p50_ms", "ms", "lower", 0},
	{"gen.sched_late_p99_ms", "ms", "lower", 0},
	{"gen.lag_waits", "count", "lower", 0},
	{"proc.cpu_user_s", "s", "lower", 0},
	{"proc.cpu_sys_s", "s", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
