package api

import (
	"context"
	"net/http"
	"strings"
)

// Middleware wraps an http.Handler with one cross-cutting concern. The
// gateway composes them with Chain; handlers stay free of transport
// plumbing.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares around h so that mw[0] is the outermost layer
// (first to see the request, last to see the response). The gateway order
// is: recovery, method check, session keying, rate limiting, metrics.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

type ctxKey int

const sessionCtxKey ctxKey = iota

// SessionFromContext returns the rate-limit/auth key the SessionAuth
// middleware attached: the session token, or the remote address for
// anonymous callers.
func SessionFromContext(ctx context.Context) string {
	s, _ := ctx.Value(sessionCtxKey).(string)
	return s
}

// Recovery converts handler panics into a structured 500 instead of
// tearing down the connection. It is the outermost layer so a panic in any
// later middleware or handler is still answered. onPanic (optional)
// observes the recovered value, e.g. to bump a metric.
func Recovery(onPanic func(v any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if onPanic != nil {
						onPanic(v)
					}
					writeError(w, Errorf(http.StatusInternalServerError, CodeInternal, "internal error"))
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// RequirePOST rejects anything but POST — the whole §3 API is
// POST-with-JSON-body.
func RequirePOST() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				writeError(w, Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required"))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// SessionAuth derives the per-session key (the X-Periscope-Session token,
// or the remote address as an anonymous fallback) and attaches it to the
// request context for the rate limiter and any later layer.
func SessionAuth() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := r.Header.Get(SessionHeader)
			if key == "" {
				key = r.RemoteAddr
			}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), sessionCtxKey, key)))
		})
	}
}

// RateLimit answers over-budget sessions with the structured 429 envelope
// and a Retry-After hint before the request reaches any handler. Only API
// paths consume tokens — stray requests the mux will 404 must not drain a
// session's budget. A nil limiter disables the layer. m (optional) counts
// the rejections.
func RateLimit(rl *RateLimiter, m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		if rl == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, PathPrefix) {
				next.ServeHTTP(w, r)
				return
			}
			ok, retryAfter := rl.Take(SessionFromContext(r.Context()))
			if !ok {
				if m != nil {
					m.RateLimited.Add(1)
				}
				e := Errorf(http.StatusTooManyRequests, CodeRateLimited, "Too many requests")
				e.RetryAfter = retryAfter
				writeError(w, e)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// CollectMetrics records per-endpoint request and error counts. It sits
// innermost so it observes exactly the traffic that reached the endpoint
// layer (rate-limited requests are counted by the RateLimit layer
// instead).
func CollectMetrics(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		if m == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m.Requests.Add(1)
			em := m.endpoint(r.URL.Path)
			if em != nil {
				em.Requests.Add(1)
			}
			sw := statusWriter{ResponseWriter: w}
			next.ServeHTTP(&sw, r)
			if sw.status >= 400 {
				m.Errors.Add(1)
				if em != nil {
					em.Errors.Add(1)
				}
			}
		})
	}
}

// statusWriter captures the response status for the metrics layer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
