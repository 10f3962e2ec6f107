package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Machine-readable error codes carried in the JSON envelope. Clients key
// behaviour on the code (the crawler backs off on rate_limited) rather
// than parsing message strings.
const (
	CodeBadRequest       = "bad_request"
	CodeTooLarge         = "too_large"
	CodeInvalidArea      = "invalid_area"
	CodeTooManyIDs       = "too_many_ids"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeRateLimited      = "rate_limited"
	CodeNotFound         = "not_found"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// Error is the structured API error: an HTTP status, a stable code, and a
// human-readable message. Handlers return *Error; the endpoint layer
// encodes it as the JSON envelope, and the client decodes it back so both
// sides of an endpoint speak the same error vocabulary.
type Error struct {
	HTTPStatus int    `json:"-"`
	Code       string `json:"code"`
	Message    string `json:"message"`
	// RetryAfter, when set on a rate_limited error, is surfaced as the
	// Retry-After header (server) and honoured by the client's backoff.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s (HTTP %d)", e.Code, e.Message, e.HTTPStatus)
}

// Errorf builds a structured error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{HTTPStatus: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeError encodes the envelope, setting Retry-After for 429s so
// well-behaved clients know exactly how long to back off, and returns the
// status it wrote.
func writeError(w http.ResponseWriter, e *Error) int {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(e.RetryAfter.Seconds()))))
	}
	return writeBody(w, e.HTTPStatus, ErrorResponse{Error: e.Message, Code: e.Code})
}

// bodyPool holds the buffers answers are encoded into by the gateway and
// read into by the client. The largest answer the caps allow, a
// getBroadcasts of 100 ids, is ≈ 20 KB; a buffer that grew past
// maxPooledBody is left to the GC so the pool never pins an outsized one.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// writeBody encodes v whole before writing any of it, then sends it in
// one Write under an explicit Content-Length: an answer past net/http's
// 2 KB response buffer is length-framed, not chunked. The two description
// answers, MapGeoBroadcastFeedResponse and GetBroadcastsResponse, are
// appended by appendDescriptions (encodeAnswer); everything else, and a
// description answer it declines, is encoded by json.Encoder. It returns
// the status it wrote: a 500 when v could not be encoded.
func writeBody(w http.ResponseWriter, status int, v any) int {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBody(buf)
	if err := encodeAnswer(buf, v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(ErrorResponse{Error: "internal error", Code: CodeInternal})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	return status
}
