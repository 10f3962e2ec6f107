package api

// EndpointSnapshot is a point-in-time copy of one endpoint's counters.
type EndpointSnapshot struct {
	Requests int64
	Errors   int64
}

// MetricsSnapshot is a point-in-time copy of the gateway counters.
type MetricsSnapshot struct {
	Requests    int64                       // requests that passed the method check and the rate limiter
	Errors      int64                       // of those, answers with status >= 400 (a recovered panic is not one)
	RateLimited int64                       // requests rejected with 429
	Panics      int64                       // handler panics recovered
	PerEndpoint map[string]EndpointSnapshot // keyed by command name
}

// Metrics returns a snapshot of the gateway counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		Requests:    s.requests.Load(),
		Errors:      s.errors.Load(),
		RateLimited: s.rateLimited.Load(),
		Panics:      s.panics.Load(),
		PerEndpoint: make(map[string]EndpointSnapshot, len(s.routes)),
	}
	for path, rt := range s.routes {
		m.PerEndpoint[path[len(PathPrefix):]] = EndpointSnapshot{
			Requests: rt.requests.Load(),
			Errors:   rt.errors.Load(),
		}
	}
	return m
}
