package rtmp

import (
	"sync"
	"sync/atomic"
)

// SharedPayload is a reference-counted message payload. It lets one pooled
// buffer fan out to many concurrent consumers (viewer queues, shard
// workers, the HLS feed) without copying: each consumer holds one
// reference and calls Release when done; the last Release recycles the
// buffer into the message-payload pool. The wrapper itself is pooled too,
// so a steady-state relay allocates nothing per message.
type SharedPayload struct {
	p    []byte
	refs atomic.Int32
}

var sharedPayloadPool = sync.Pool{New: func() any { return new(SharedPayload) }}

// SharePayload wraps a payload obtained from ReadMessage with an initial
// reference count of one, owned by the caller. The caller must not recycle
// p directly afterwards; the final Release does that.
func SharePayload(p []byte) *SharedPayload {
	sp := sharedPayloadPool.Get().(*SharedPayload)
	sp.p = p
	sp.refs.Store(1)
	return sp
}

// Bytes returns the wrapped payload. The slice is only valid while the
// caller holds a reference.
func (sp *SharedPayload) Bytes() []byte { return sp.p }

// Retain adds a reference on behalf of a new consumer.
func (sp *SharedPayload) Retain() { sp.refs.Add(1) }

// Release drops one reference; the last one recycles the payload into the
// pool and returns the wrapper for reuse. Releasing more times than
// retained is a bug and panics.
func (sp *SharedPayload) Release() {
	switch n := sp.refs.Add(-1); {
	case n == 0:
		p := sp.p
		sp.p = nil
		sharedPayloadPool.Put(sp)
		RecycleMessagePayload(p)
	case n < 0:
		panic("rtmp: SharedPayload over-released")
	}
}
