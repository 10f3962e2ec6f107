package rtmp

import "testing"

// samePayloadBacking reports whether two non-empty payloads share a
// backing array.
func samePayloadBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestSharedPayloadRecyclesOnLastRelease verifies the refcount contract:
// the buffer must reach the pool exactly when the final reference is
// dropped, not before.
func TestSharedPayloadRecyclesOnLastRelease(t *testing.T) {
	// Retry a few times: sync.Pool identity is not guaranteed under a
	// concurrent GC cycle, but holding the buffer back is always a bug.
	reused := false
	for attempt := 0; attempt < 8 && !reused; attempt++ {
		p := getPayloadBuf(2048)
		//lint:ignore periscopelint/refpair the t.Fatal abort paths exit with references held by design; a failed test's buffers never reaching the pool is fine
		sp := SharePayload(p)
		sp.Retain()
		sp.Retain() // three holders: caller + two consumers

		sp.Release()
		if q := getPayloadBuf(2048); samePayloadBacking(p, q) {
			t.Fatal("payload recycled while two references were still held")
		}
		sp.Release()
		if q := getPayloadBuf(2048); samePayloadBacking(p, q) {
			t.Fatal("payload recycled while one reference was still held")
		}
		sp.Release() // last reference: recycle now
		reused = samePayloadBacking(p, getPayloadBuf(2048))
	}
	if !reused {
		t.Error("payload never returned to the pool after the last Release")
	}
}

func TestSharedPayloadOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	sp := SharePayload(getPayloadBuf(16))
	sp.Release()
	//lint:ignore periscopelint/refpair deliberate over-release: this test asserts the refcount guard panics
	sp.Release()
}
