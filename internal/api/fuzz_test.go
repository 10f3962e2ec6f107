package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
)

// knownCodes is the error vocabulary a client may key on.
var knownCodes = map[string]bool{
	CodeBadRequest: true, CodeTooLarge: true, CodeInvalidArea: true, CodeTooManyIDs: true,
	CodeMethodNotAllowed: true, CodeRateLimited: true, CodeNotFound: true,
	CodeUnavailable: true, CodeInternal: true,
}

// FuzzGatewayDecode posts arbitrary bytes as the body of one of the five
// endpoints (sel picks it; its high bit leaves the video plane out, so
// accessVideo answers 503) through the whole gateway handler. No input
// may panic a handler; every answer has a status the API documents, is
// length-framed, and every refusal is the error envelope with a known
// code.
func FuzzGatewayDecode(f *testing.F) {
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	ids := `"` + strings.Repeat(`x","`, 100) + `x"`
	for sel, body := range []string{
		`{"p1_lat":-90,"p1_lng":-180,"p2_lat":90,"p2_lng":180,"include_replay":true}`,
		`{"broadcast_ids":[` + ids + `]}`,
		`{"stats":{"broadcast_id":"a","protocol":"HLS","n_stall_events":1e400}}`,
		`{"broadcast_id":"missing"}`,
		`{}`,
	} {
		f.Add(uint8(sel), []byte(body))
	}
	f.Add(uint8(0x83), []byte(`{"broadcast_id":"x"}`))
	f.Add(uint8(1), []byte(`{"pad":"`+strings.Repeat("x", maxRequestBody)+`"}`))
	names := []string{
		MapGeoBroadcastFeedEndpoint.Name,
		GetBroadcastsEndpoint.Name,
		PlaybackMetaEndpoint.Name,
		AccessVideoEndpoint.Name,
		TeleportEndpoint.Name,
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		scfg := DefaultServerConfig()
		scfg.RateLimit = 0
		var video VideoAccessProvider = stubVideo{}
		if sel&0x80 != 0 {
			video = nil
		}
		srv := NewServer(pop, video, scfg)
		name := names[int(sel&0x7f)%len(names)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathPrefix+name, bytes.NewReader(body)))

		if n := srv.Metrics().Panics; n != 0 {
			t.Fatalf("%s: %d handler panics", name, n)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s: status %d", name, rec.Code)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
		}
		if rec.Code == http.StatusOK {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: 200 with a body that is not JSON: %q", name, rec.Body.Bytes())
			}
			return
		}
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !knownCodes[env.Code] {
			t.Fatalf("%s: status %d with body %q: not an envelope with a known code (%v)", name, rec.Code, rec.Body.Bytes(), err)
		}
	})
}
