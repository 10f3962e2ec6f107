package mpegts

import (
	"time"
)

// pidLimit bounds the 13-bit PID space for the continuity-counter array.
const pidLimit = 0x2000

// Muxer writes a single-program transport stream with one AVC video and
// one AAC audio elementary stream, the layout observed in Periscope HLS
// segments. Packets are appended to an internal buffer that Bytes() hands
// off without copying; PES packets are marshalled straight into TS
// packets with no intermediate full-payload allocation.
type Muxer struct {
	out []byte
	// last is the length of the stream the previous Bytes call handed off:
	// the next buffer starts at that size plus headroom, so a steady stream
	// fills each segment's buffer in one allocation instead of regrowing it.
	last      int
	cc        [pidLimit]uint8
	psi       [2]psiTable
	wrotePSI  bool
	psiPeriod int // access units between PSI refreshes
	auCount   int
}

// psiTable is one PSI section ready to packetize: pointer_field = 0, then
// the section. The tables never change, so they are marshalled once.
type psiTable struct {
	pid     uint16
	payload []byte
}

// NewMuxer returns a muxer ready to accept access units.
func NewMuxer() *Muxer {
	pat := PAT{
		TransportStreamID: 1,
		ProgramNumber:     1,
		PMTPID:            PIDPMT,
	}
	pmt := PMT{
		ProgramNumber: 1,
		PCRPID:        PIDVideo,
		Streams: []PMTStream{
			{StreamType: StreamTypeAVC, PID: PIDVideo},
			{StreamType: StreamTypeAAC, PID: PIDAudio},
		},
	}
	return &Muxer{
		psi: [2]psiTable{
			{PIDPAT, append([]byte{0}, pat.Marshal()...)},
			{PIDPMT, append([]byte{0}, pmt.Marshal()...)},
		},
		psiPeriod: 64,
	}
}

func (m *Muxer) nextCC(pid uint16) uint8 {
	v := m.cc[pid]
	m.cc[pid] = (v + 1) & 0x0F
	return v
}

// writePSI emits the PAT and PMT, each starting its own packet.
func (m *Muxer) writePSI() {
	for _, t := range m.psi {
		payload := t.payload
		m.reserve(len(payload))
		first := true
		for len(payload) > 0 {
			var pkt [PacketSize]byte
			n := fillPacket(&pkt, t.pid, first, m.nextCC(t.pid), false, nil, payload, nil)
			m.out = append(m.out, pkt[:]...)
			payload = payload[n:]
			first = false
		}
	}
	m.wrotePSI = true
}

// WriteVideo writes one video access unit (Annex B NAL stream) with the
// given timestamps. Keyframes set the random-access indicator and carry a
// PCR derived from the DTS.
func (m *Muxer) WriteVideo(pts, dts time.Duration, keyframe bool, annexB []byte) {
	m.maybePSI()
	pes := PES{StreamID: StreamIDVideo, PTS: ToTicks(pts), DTS: ToTicks(dts), Data: annexB}
	pcr := uint64(ToTicks(dts)) * 300
	m.writePES(PIDVideo, pes, keyframe, &pcr)
}

// WriteAudio writes one audio access unit (ADTS frame).
func (m *Muxer) WriteAudio(pts time.Duration, adts []byte) {
	m.maybePSI()
	pes := PES{StreamID: StreamIDAudio, PTS: ToTicks(pts), DTS: NoTimestamp, Data: adts}
	m.writePES(PIDAudio, pes, false, nil)
}

func (m *Muxer) maybePSI() {
	if !m.wrotePSI || m.auCount%m.psiPeriod == 0 {
		m.writePSI()
	}
	m.auCount++
}

// reserve makes room in the output for the packets carrying n payload
// bytes (counting room for a PCR adaptation field, so the packet loop
// never regrows the buffer). A segment's first buffer is sized from the
// previous segment; past that, or with no previous segment, the buffer
// grows by half.
func (m *Muxer) reserve(n int) {
	const pcrField = 8 // adaptation field length, flags, PCR
	need := len(m.out) + (n+pcrField+PacketSize-5)/(PacketSize-4)*PacketSize
	if cap(m.out) >= need {
		return
	}
	size := need + need/2
	if m.out == nil && m.last > 0 {
		size = max(need, m.last+m.last/8)
	}
	grown := make([]byte, len(m.out), size)
	copy(grown, m.out)
	m.out = grown
}

// writePES packetizes one PES directly into TS packets: the PES header is
// marshalled into a stack buffer and the elementary payload is consumed
// in place, so the access unit is copied exactly once (into the output).
func (m *Muxer) writePES(pid uint16, pes PES, rai bool, pcr *uint64) {
	var hdr [pesMaxHeaderLen]byte
	head := hdr[:pes.marshalHeader(hdr[:])]
	data := pes.Data
	m.reserve(len(head) + len(data))

	first := true
	for len(head)+len(data) > 0 {
		var pkt [PacketSize]byte
		var n int
		if first {
			n = fillPacket(&pkt, pid, true, m.nextCC(pid), rai, pcr, head, data)
			first = false
		} else {
			n = fillPacket(&pkt, pid, false, m.nextCC(pid), false, nil, head, data)
		}
		m.out = append(m.out, pkt[:]...)
		if h := len(head); n <= h {
			head = head[n:]
			n = 0
		} else {
			head = nil
			n -= h
		}
		data = data[n:]
	}
}

// Bytes returns the muxed stream accumulated since the last call, handing
// off ownership of the returned slice without a copy; the muxer starts a
// fresh buffer. Continuity counters persist, so successive calls produce
// splice-able chunks — exactly how a live HLS segmenter drains the muxer
// per segment.
func (m *Muxer) Bytes() []byte {
	out := m.out
	m.out = nil
	if len(out) > 0 {
		m.last = len(out)
	}
	return out
}

// Len reports the bytes currently buffered.
func (m *Muxer) Len() int { return len(m.out) }
