package rtmp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// DefaultChunkSize is the protocol default before any Set Chunk Size.
const DefaultChunkSize = 128

// extendedTimestampSentinel marks the presence of the 4-byte extended
// timestamp field.
const extendedTimestampSentinel = 0xFFFFFF

// payloadPool recycles message payload buffers. ReadMessage draws payloads
// from the pool; callers that fully consume a message before reading the
// next one may hand the buffer back via RecycleMessagePayload. Callers
// that retain the payload (relays, caches) simply never recycle it.
var payloadPool sync.Pool

func getPayloadBuf(n uint32) []byte {
	if n == 0 {
		return nil
	}
	if v := payloadPool.Get(); v != nil {
		b := *v.(*[]byte)
		if uint32(cap(b)) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// RecycleMessagePayload returns a payload buffer obtained from ReadMessage
// to the pool. The caller must not touch the slice afterwards.
func RecycleMessagePayload(p []byte) {
	if cap(p) == 0 {
		return
	}
	p = p[:0]
	payloadPool.Put(&p)
}

// chunkStreamState tracks the decoder state for one chunk stream ID.
type chunkStreamState struct {
	timestamp    uint32
	tsDelta      uint32
	length       uint32
	typeID       uint8
	streamID     uint32
	extendedTS   bool
	assembled    []byte
	bytesPending uint32
}

// readerBufSize is the inline read-buffer size: one bulk Read from the
// transport serves the chunk headers and small payloads of many chunks;
// larger payload stretches are read straight into the message buffer.
const readerBufSize = 1 << 10

// maxConsecutiveEmptyReads mirrors bufio's guard against a broken Reader
// returning (0, nil) forever.
const maxConsecutiveEmptyReads = 100

// ChunkReader reassembles messages from the chunk stream layer. It
// buffers the transport internally (a bulk Read serves many chunks) and
// reassembles each message into a single pre-sized, pooled buffer.
type ChunkReader struct {
	r         io.Reader
	chunkSize uint32
	// first holds the state of the first chunk stream seen inline; media
	// connections are dominated by one stream, so the common path touches
	// no map at all.
	first     chunkStreamState
	firstCSID uint32
	firstSet  bool
	streams   map[uint32]*chunkStreamState
	// BytesRead counts raw bytes for acknowledgement accounting.
	BytesRead uint64
	rpos      int
	rlen      int
	buf       [readerBufSize]byte
	scratch   [16]byte
}

// NewChunkReader wraps r with protocol-default chunk size.
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{r: r, chunkSize: DefaultChunkSize}
}

// SetChunkSize updates the maximum chunk payload length (applied when the
// peer sends a Set Chunk Size message).
func (cr *ChunkReader) SetChunkSize(n uint32) { cr.chunkSize = n }

// refill issues one bulk Read into the internal buffer. It only runs when
// the buffer is empty and at least one more byte is needed, so it never
// blocks for data the decoder does not require.
func (cr *ChunkReader) refill() error {
	for i := 0; i < maxConsecutiveEmptyReads; i++ {
		n, err := cr.r.Read(cr.buf[:])
		if n > 0 {
			cr.rpos, cr.rlen = 0, n
			cr.BytesRead += uint64(n)
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

func (cr *ChunkReader) readFull(dst []byte) error {
	for len(dst) > 0 {
		if cr.rpos == cr.rlen {
			// A remainder at least as large as the buffer skips it: read
			// straight into the destination, no double copy.
			if len(dst) >= len(cr.buf) {
				n, err := io.ReadFull(cr.r, dst)
				cr.BytesRead += uint64(n)
				return err
			}
			if err := cr.refill(); err != nil {
				return err
			}
		}
		n := copy(dst, cr.buf[cr.rpos:cr.rlen])
		cr.rpos += n
		dst = dst[n:]
	}
	return nil
}

// state returns the decoder state for csid, allocating lazily.
func (cr *ChunkReader) state(csid uint32) *chunkStreamState {
	if cr.firstSet {
		if cr.firstCSID == csid {
			return &cr.first
		}
	} else {
		cr.firstSet = true
		cr.firstCSID = csid
		return &cr.first
	}
	if cr.streams == nil {
		cr.streams = make(map[uint32]*chunkStreamState, 4)
	}
	st, ok := cr.streams[csid]
	if !ok {
		st = &chunkStreamState{}
		cr.streams[csid] = st
	}
	return st
}

// take returns a view of the next n buffered bytes when they are already
// contiguous in the internal buffer (the hot path — no copy), falling
// back to assembling them in the scratch array.
func (cr *ChunkReader) take(n int) ([]byte, error) {
	if cr.rlen-cr.rpos >= n {
		b := cr.buf[cr.rpos : cr.rpos+n]
		cr.rpos += n
		return b, nil
	}
	if err := cr.readFull(cr.scratch[:n]); err != nil {
		return nil, err
	}
	return cr.scratch[:n], nil
}

// ReadMessage returns the next complete message, transparently handling
// chunk interleaving. Set Chunk Size messages are applied AND returned, so
// the connection layer can account for them.
func (cr *ChunkReader) ReadMessage() (Message, error) {
	for {
		st, complete, err := cr.readChunk()
		if err != nil {
			return Message{}, err
		}
		if !complete {
			continue
		}
		msg := Message{
			TypeID:    st.typeID,
			StreamID:  st.streamID,
			Timestamp: st.timestamp,
			Payload:   st.assembled,
		}
		st.assembled = nil
		if msg.TypeID == TypeSetChunkSize {
			if v, err := parseUint32Payload(msg.Payload); err == nil && v > 0 {
				cr.chunkSize = v & 0x7FFFFFFF
			}
		}
		return msg, nil
	}
}

func (cr *ChunkReader) readChunk() (*chunkStreamState, bool, error) {
	b0, err := cr.take(1)
	if err != nil {
		return nil, false, err
	}
	format := b0[0] >> 6
	csid := uint32(b0[0] & 0x3F)
	switch csid {
	case 0:
		b, err := cr.take(1)
		if err != nil {
			return nil, false, err
		}
		csid = uint32(b[0]) + 64
	case 1:
		b, err := cr.take(2)
		if err != nil {
			return nil, false, err
		}
		csid = uint32(binary.LittleEndian.Uint16(b)) + 64
	}
	st := cr.state(csid)
	if format < 3 && st.bytesPending != 0 {
		// Only a type-3 chunk may continue a message. A new message header
		// would redefine the length of the one being assembled, so the
		// stream is broken: drop the partial message and refuse it.
		pending := st.bytesPending
		RecycleMessagePayload(st.assembled)
		st.assembled, st.bytesPending = nil, 0
		return nil, false, fmt.Errorf("rtmp: type-%d header on chunk stream %d with %d bytes of a message pending", format, csid, pending)
	}

	switch format {
	case 0:
		h, err := cr.take(11)
		if err != nil {
			return nil, false, err
		}
		ts := uint32(h[0])<<16 | uint32(h[1])<<8 | uint32(h[2])
		st.length = uint32(h[3])<<16 | uint32(h[4])<<8 | uint32(h[5])
		st.typeID = h[6]
		st.streamID = binary.LittleEndian.Uint32(h[7:11])
		st.extendedTS = ts == extendedTimestampSentinel
		if st.extendedTS {
			e, err := cr.take(4)
			if err != nil {
				return nil, false, err
			}
			ts = binary.BigEndian.Uint32(e)
		}
		st.timestamp = ts
		st.tsDelta = 0
	case 1:
		h, err := cr.take(7)
		if err != nil {
			return nil, false, err
		}
		delta := uint32(h[0])<<16 | uint32(h[1])<<8 | uint32(h[2])
		st.length = uint32(h[3])<<16 | uint32(h[4])<<8 | uint32(h[5])
		st.typeID = h[6]
		st.extendedTS = delta == extendedTimestampSentinel
		if st.extendedTS {
			e, err := cr.take(4)
			if err != nil {
				return nil, false, err
			}
			delta = binary.BigEndian.Uint32(e)
		}
		st.tsDelta = delta
		st.timestamp += delta
	case 2:
		h, err := cr.take(3)
		if err != nil {
			return nil, false, err
		}
		delta := uint32(h[0])<<16 | uint32(h[1])<<8 | uint32(h[2])
		st.extendedTS = delta == extendedTimestampSentinel
		if st.extendedTS {
			e, err := cr.take(4)
			if err != nil {
				return nil, false, err
			}
			delta = binary.BigEndian.Uint32(e)
		}
		st.tsDelta = delta
		st.timestamp += delta
	case 3:
		// Continuation chunks repeat the extended timestamp field when the
		// message header used one; fresh type-3 messages reuse the stored
		// delta.
		if st.extendedTS {
			e, err := cr.take(4)
			if err != nil {
				return nil, false, err
			}
			if st.bytesPending == 0 {
				st.tsDelta = binary.BigEndian.Uint32(e)
			}
		}
		if st.bytesPending == 0 {
			st.timestamp += st.tsDelta
		}
	}

	if st.bytesPending == 0 {
		// One pre-sized buffer per message: each chunk reads straight into
		// its slot, no per-chunk allocation or append copy.
		st.assembled = getPayloadBuf(st.length)
		st.bytesPending = st.length
	}
	n := st.bytesPending
	if n > cr.chunkSize {
		n = cr.chunkSize
	}
	off := st.length - st.bytesPending
	if n > 0 {
		if err := cr.readFull(st.assembled[off : off+n]); err != nil {
			return nil, false, err
		}
	}
	st.bytesPending -= n

	// Greedy continuation: while the next buffered byte is a type-3 basic
	// header for this chunk stream and a whole chunk is already buffered,
	// consume it inline instead of re-entering the per-chunk machinery.
	// (Chunk boundaries are deterministic, so peeking one byte suffices.)
	if csid < 64 && !st.extendedTS {
		cont := byte(3)<<6 | byte(csid)
		for st.bytesPending > 0 && cr.rpos < cr.rlen && cr.buf[cr.rpos] == cont {
			n := st.bytesPending
			if n > cr.chunkSize {
				n = cr.chunkSize
			}
			if uint32(cr.rlen-cr.rpos-1) < n {
				break // chunk not fully buffered: general path
			}
			cr.rpos++
			off := st.length - st.bytesPending
			copy(st.assembled[off:off+n], cr.buf[cr.rpos:cr.rpos+int(n)])
			cr.rpos += int(n)
			st.bytesPending -= n
		}
	}
	return st, st.bytesPending == 0, nil
}

// writerStreamState is the last header emitted on one outgoing chunk
// stream, the reference point for type-1/2/3 header compression.
type writerStreamState struct {
	timestamp uint32
	tsDelta   uint32
	length    uint32
	typeID    uint8
	streamID  uint32
	extended  bool // last header carried an extended timestamp field
	valid     bool
}

// directWriteThreshold is the payload-segment size above which the writer
// bypasses the staging buffer and writes the caller's slice directly,
// avoiding a copy.
const directWriteThreshold = 256

// stagedSize is the inline staging-buffer size.
const stagedSize = 1 << 10

// ChunkWriter splits messages into chunks, compressing message headers
// against per-chunk-stream delta state: a repeat message on the same
// stream costs a 1-byte type-3 header instead of 12 bytes. Chunk headers
// and small payload segments are staged and written out in one Write per
// message, so a multi-chunk message does not cost a Write per chunk.
type ChunkWriter struct {
	w         io.Writer
	chunkSize uint32
	first     writerStreamState
	firstCSID uint32
	firstSet  bool
	last      map[uint32]*writerStreamState
	stagedLen int
	staged    [stagedSize]byte
	hdr       [18]byte // basic(≤3) + message header(≤11) + extended ts(4)
}

// NewChunkWriter wraps w with protocol-default chunk size.
func NewChunkWriter(w io.Writer) *ChunkWriter {
	return &ChunkWriter{w: w, chunkSize: DefaultChunkSize}
}

// SetChunkSize updates the outgoing chunk payload size. The caller must
// separately send the Set Chunk Size control message first.
func (cw *ChunkWriter) SetChunkSize(n uint32) { cw.chunkSize = n }

func (cw *ChunkWriter) stage(b []byte) error {
	for len(b) > 0 {
		if cw.stagedLen == len(cw.staged) {
			if err := cw.flushStaged(); err != nil {
				return err
			}
		}
		n := copy(cw.staged[cw.stagedLen:], b)
		cw.stagedLen += n
		b = b[n:]
	}
	return nil
}

func (cw *ChunkWriter) flushStaged() error {
	if cw.stagedLen == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.staged[:cw.stagedLen])
	cw.stagedLen = 0
	return err
}

func (cw *ChunkWriter) state(csid uint32) *writerStreamState {
	if cw.firstSet {
		if cw.firstCSID == csid {
			return &cw.first
		}
	} else {
		cw.firstSet = true
		cw.firstCSID = csid
		return &cw.first
	}
	if cw.last == nil {
		cw.last = make(map[uint32]*writerStreamState, 4)
	}
	st, ok := cw.last[csid]
	if !ok {
		st = &writerStreamState{}
		cw.last[csid] = st
	}
	return st
}

// WriteMessage emits msg on the given chunk stream id using the most
// compact header format the previous message on that stream permits:
// type 0 on the first message, a stream-id change or a timestamp going
// backwards; type 1 when length or type changed; type 2 when only the
// timestamp delta changed; type 3 when everything repeats.
func (cw *ChunkWriter) WriteMessage(csid uint32, msg Message) error {
	if csid < 2 || csid > 65599 {
		return fmt.Errorf("rtmp: invalid chunk stream id %d", csid)
	}
	st := cw.state(csid)
	l := uint32(len(msg.Payload))
	format := byte(0)
	var delta uint32
	if st.valid && msg.StreamID == st.streamID && msg.Timestamp >= st.timestamp {
		delta = msg.Timestamp - st.timestamp
		switch {
		case l != st.length || msg.TypeID != st.typeID:
			format = 1
		case delta != st.tsDelta:
			format = 2
		default:
			format = 3
		}
	}

	hdr := appendBasicHeader(cw.hdr[:0], format, csid)
	var extended bool
	switch format {
	case 0:
		ts := msg.Timestamp
		extended = ts >= extendedTimestampSentinel
		h24 := ts
		if extended {
			h24 = extendedTimestampSentinel
		}
		hdr = append(hdr, byte(h24>>16), byte(h24>>8), byte(h24))
		hdr = append(hdr, byte(l>>16), byte(l>>8), byte(l))
		hdr = append(hdr, msg.TypeID)
		hdr = binary.LittleEndian.AppendUint32(hdr, msg.StreamID)
		if extended {
			hdr = binary.BigEndian.AppendUint32(hdr, ts)
		}
		st.tsDelta = 0
	case 1:
		extended = delta >= extendedTimestampSentinel
		h24 := delta
		if extended {
			h24 = extendedTimestampSentinel
		}
		hdr = append(hdr, byte(h24>>16), byte(h24>>8), byte(h24))
		hdr = append(hdr, byte(l>>16), byte(l>>8), byte(l))
		hdr = append(hdr, msg.TypeID)
		if extended {
			hdr = binary.BigEndian.AppendUint32(hdr, delta)
		}
		st.tsDelta = delta
	case 2:
		extended = delta >= extendedTimestampSentinel
		h24 := delta
		if extended {
			h24 = extendedTimestampSentinel
		}
		hdr = append(hdr, byte(h24>>16), byte(h24>>8), byte(h24))
		if extended {
			hdr = binary.BigEndian.AppendUint32(hdr, delta)
		}
		st.tsDelta = delta
	case 3:
		// A fresh type-3 message inherits the previous delta; when the
		// previous header was extended the reader expects the 4-byte field
		// again.
		extended = st.extended
		if extended {
			hdr = binary.BigEndian.AppendUint32(hdr, delta)
		}
	}
	st.timestamp = msg.Timestamp
	st.length = l
	st.typeID = msg.TypeID
	st.streamID = msg.StreamID
	st.extended = extended
	st.valid = true

	if err := cw.stage(hdr); err != nil {
		return err
	}
	extTS := msg.Timestamp
	if format != 0 {
		extTS = delta
	}
	payload := msg.Payload
	if !extended && csid < 64 {
		// Fast path: 1-byte continuation headers are a constant, so chunks
		// can be packed into the staging buffer in one tight loop.
		cont := byte(3)<<6 | byte(csid)
		for {
			n := uint32(len(payload))
			if n > cw.chunkSize {
				n = cw.chunkSize
			}
			if n >= directWriteThreshold {
				if err := cw.flushStaged(); err != nil {
					return err
				}
				if _, err := cw.w.Write(payload[:n]); err != nil {
					return err
				}
			} else {
				if len(cw.staged)-cw.stagedLen < int(n) {
					if err := cw.flushStaged(); err != nil {
						return err
					}
				}
				copy(cw.staged[cw.stagedLen:], payload[:n])
				cw.stagedLen += int(n)
			}
			payload = payload[n:]
			if len(payload) == 0 {
				return cw.flushStaged()
			}
			if cw.stagedLen == len(cw.staged) {
				if err := cw.flushStaged(); err != nil {
					return err
				}
			}
			cw.staged[cw.stagedLen] = cont
			cw.stagedLen++
		}
	}
	for {
		n := uint32(len(payload))
		if n > cw.chunkSize {
			n = cw.chunkSize
		}
		if n >= directWriteThreshold {
			if err := cw.flushStaged(); err != nil {
				return err
			}
			if _, err := cw.w.Write(payload[:n]); err != nil {
				return err
			}
		} else if err := cw.stage(payload[:n]); err != nil {
			return err
		}
		payload = payload[n:]
		if len(payload) == 0 {
			return cw.flushStaged()
		}
		cont := appendBasicHeader(cw.hdr[:0], 3, csid)
		if extended {
			cont = binary.BigEndian.AppendUint32(cont, extTS)
		}
		if err := cw.stage(cont); err != nil {
			return err
		}
	}
}

func appendBasicHeader(b []byte, format byte, csid uint32) []byte {
	switch {
	case csid < 64:
		return append(b, format<<6|byte(csid))
	case csid < 320:
		return append(b, format<<6, byte(csid-64))
	default:
		b = append(b, format<<6|1)
		return binary.LittleEndian.AppendUint16(b, uint16(csid-64))
	}
}
