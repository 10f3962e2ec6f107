package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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
// well-behaved clients know exactly how long to back off.
func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(e.RetryAfter.Seconds()))))
	}
	w.WriteHeader(e.HTTPStatus)
	json.NewEncoder(w).Encode(ErrorResponse{Error: e.Message, Code: e.Code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
