package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
)

// gatewayDescriptions returns n descriptions as the gateway's
// getBroadcasts handler renders them, viewer counts included.
func gatewayDescriptions(tb testing.TB, n int) []BroadcastDesc {
	tb.Helper()
	cfg := broadcastmodel.DefaultConfig()
	cfg.TargetConcurrent = 200
	pop := broadcastmodel.New(cfg, time.Date(2016, 4, 1, 15, 0, 0, 0, time.UTC))
	var ids []string
	for _, b := range pop.Live()[:n] {
		ids = append(ids, b.ID)
	}
	resp, apiErr := NewServer(pop, nil, DefaultServerConfig()).getBroadcasts(&GetBroadcastsRequest{BroadcastIDs: ids})
	if apiErr != nil || len(resp.Broadcasts) != n {
		tb.Fatalf("getBroadcasts of %d ids: %d descriptions, %v", n, len(resp.Broadcasts), apiErr)
	}
	return resp.Broadcasts
}

// referenceBody is what writeBody sent before the codec: json.Encoder's
// output, or the internal-error envelope when it refuses v.
func referenceBody(v any) (int, []byte) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(&buf).Encode(ErrorResponse{Error: "internal error", Code: CodeInternal})
		return http.StatusInternalServerError, buf.Bytes()
	}
	return http.StatusOK, buf.Bytes()
}

// unescaped reports whether json.Encoder writes every string of ds
// verbatim and every float as a number: the answers the codec must
// append itself rather than hand to the encoder.
func unescaped(ds []BroadcastDesc) bool {
	for _, d := range ds {
		for _, s := range []string{d.ID, d.CreatedAt, d.State, d.Region} {
			if b, _ := json.Marshal(s); string(b) != `"`+s+`"` {
				return false
			}
		}
		for _, f := range []float64{d.Latitude, d.Longitude} {
			if _, err := json.Marshal(f); err != nil {
				return false
			}
		}
	}
	return ds != nil
}

// FuzzDescriptionCodec checks the description codec against
// encoding/json, its reference, in both directions. Decode: answer bytes
// decoded into a zero answer and into a presized getBroadcasts slice give
// what json.Unmarshal gives, error or not, down to the presized slice's
// backing array. Encode: descriptions built from the fuzzed fields are
// written by writeBody byte for byte as json.Encoder writes them (the
// internal-error envelope where it refuses them), an answer with nothing
// to escape is appended by the codec itself, and the scanner reads what
// the codec appended back to the same descriptions.
func FuzzDescriptionCodec(f *testing.F) {
	answer, _ := appendDescriptions(nil, gatewayDescriptions(f, 20))
	f.Add(answer, "211GPFDn1vMB", "us-east", 40.7128, -74.006, int64(12), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, id, region string, lat, lng float64, watching int64, flags uint8) {
		var got, want MapGeoBroadcastFeedResponse
		errGot, errWant := decodeAnswer(data, &got), json.Unmarshal(data, &want)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q: codec %+v, %v; json.Unmarshal %+v, %v", data, got, errGot, want, errWant)
		}
		arrGot, arrWant := make([]BroadcastDesc, 0, 4), make([]BroadcastDesc, 0, 4)
		sizedGot, sizedWant := GetBroadcastsResponse{Broadcasts: arrGot}, GetBroadcastsResponse{Broadcasts: arrWant}
		errGot, errWant = decodeAnswer(data, &sizedGot), json.Unmarshal(data, &sizedWant)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(sizedGot, sizedWant) ||
			!reflect.DeepEqual(arrGot[:cap(arrGot)], arrWant[:cap(arrWant)]) {
			t.Fatalf("decode %q into a presized slice: codec %+v (array %+v), %v; json.Unmarshal %+v (array %+v), %v",
				data, sizedGot, arrGot[:cap(arrGot)], errGot, sizedWant, arrWant[:cap(arrWant)], errWant)
		}

		state := "RUNNING"
		if flags&4 != 0 {
			state = "ENDED"
		}
		if flags&8 != 0 {
			state = id
		}
		ds := []BroadcastDesc{
			{ID: id, CreatedAt: "2016-04-01T15:00:00Z", State: state, Latitude: lat, Longitude: lng,
				LocationDisclosed: flags&1 != 0, AvailableForReplay: flags&2 != 0, Region: region, NumWatching: int(watching)},
			{ID: region, CreatedAt: id, State: "ENDED", Latitude: lng, NumWatching: -int(watching)},
		}
		for _, v := range []any{MapGeoBroadcastFeedResponse{ds}, GetBroadcastsResponse{ds[1:]}, GetBroadcastsResponse{ds[:0]}} {
			rec := httptest.NewRecorder()
			writeBody(rec, http.StatusOK, v)
			if status, body := referenceBody(v); rec.Code != status || !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("encode %+v: writeBody %d %q, json.Encoder %d %q", v, rec.Code, rec.Body.Bytes(), status, body)
			}
		}
		appended, ok := appendDescriptions(nil, ds)
		if ok != unescaped(ds) {
			t.Fatalf("encode %+v: appended %v, want %v", ds, ok, !ok)
		}
		var back []BroadcastDesc
		if ok && (!scanDescriptions(appended, &back) || !reflect.DeepEqual(back, ds)) {
			t.Fatalf("scan of the appended %q: %+v, want %+v", appended, back, ds)
		}
	})
}

// TestScanDescriptionsLeavesNoTrace: an answer the scanner gives up on in
// its last description, after writing every other one into the presized
// slice, leaves that slice and its backing array as they were, so the
// fallback decodes exactly what json.Unmarshal alone would.
func TestScanDescriptionsLeavesNoTrace(t *testing.T) {
	ds := gatewayDescriptions(t, 20)
	answer, ok := appendDescriptions(nil, ds)
	if !ok {
		t.Fatal("the codec declined a gateway answer")
	}
	last := bytes.LastIndex(answer, []byte(`{"id":`))
	for name, input := range map[string]string{
		"space json.Unmarshal accepts": string(answer[:last]) + strings.Replace(string(answer[last:]), `"state":`, `"state": `, 1),
		"brace missing":                string(answer[:len(answer)-4]) + "]}",
	} {
		arr := make([]BroadcastDesc, 0, len(ds))
		resp := GetBroadcastsResponse{Broadcasts: arr}
		if scanDescriptions([]byte(input), &resp.Broadcasts) {
			t.Fatalf("%s: the scanner accepted %q", name, input)
		}
		if len(resp.Broadcasts) != 0 || cap(resp.Broadcasts) != len(ds) {
			t.Errorf("%s: the slice became len %d cap %d", name, len(resp.Broadcasts), cap(resp.Broadcasts))
		}
		for i, d := range arr[:cap(arr)] {
			if d != (BroadcastDesc{}) {
				t.Fatalf("%s: slot %d of the backing array holds %+v after the scanner gave up", name, i, d)
			}
		}
		want := GetBroadcastsResponse{Broadcasts: make([]BroadcastDesc, 0, len(ds))}
		errGot, errWant := decodeAnswer([]byte(input), &resp), json.Unmarshal([]byte(input), &want)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(resp, want) {
			t.Errorf("%s: decoded %+v, %v; json.Unmarshal %+v, %v", name, resp, errGot, want, errWant)
		}
	}
}

var benchSink any

// BenchmarkDescriptionCodec encodes and decodes a 20-description
// getBroadcasts answer (≈ 4 KB), the shape most API traffic has.
func BenchmarkDescriptionCodec(b *testing.B) {
	ds := gatewayDescriptions(b, 20)
	answer, _ := appendDescriptions(nil, ds)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(answer)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := encodeAnswer(&buf, GetBroadcastsResponse{ds}); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = buf.Len()
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(answer)))
		for i := 0; i < b.N; i++ {
			resp := GetBroadcastsResponse{Broadcasts: make([]BroadcastDesc, 0, len(ds))}
			if err := decodeAnswer(answer, &resp); err != nil {
				b.Fatal(err)
			}
			benchSink = resp
		}
	})
}
