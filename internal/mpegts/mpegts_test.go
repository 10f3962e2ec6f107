package mpegts

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"periscope/internal/avc"
	"periscope/internal/media"
)

func TestCRC32KnownValue(t *testing.T) {
	// CRC-32/MPEG-2 of "123456789" is 0x0376E6E7 (standard check value).
	if got := CRC32([]byte("123456789")); got != 0x0376E6E7 {
		t.Errorf("CRC32 = %#x, want 0x0376E6E7", got)
	}
}

func TestPATRoundTrip(t *testing.T) {
	pat := PAT{TransportStreamID: 7, ProgramNumber: 1, PMTPID: PIDPMT}
	got, err := ParsePAT(pat.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != pat {
		t.Errorf("got %+v, want %+v", got, pat)
	}
}

func TestPMTRoundTrip(t *testing.T) {
	pmt := PMT{
		ProgramNumber: 1,
		PCRPID:        PIDVideo,
		Streams: []PMTStream{
			{StreamType: StreamTypeAVC, PID: PIDVideo},
			{StreamType: StreamTypeAAC, PID: PIDAudio},
		},
	}
	got, err := ParsePMT(pmt.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.PCRPID != PIDVideo || len(got.Streams) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Streams[0].StreamType != StreamTypeAVC || got.Streams[1].PID != PIDAudio {
		t.Errorf("streams wrong: %+v", got.Streams)
	}
}

func TestPSICorruptionDetected(t *testing.T) {
	sec := PAT{TransportStreamID: 7, ProgramNumber: 1, PMTPID: PIDPMT}.Marshal()
	sec[4] ^= 0xFF
	if _, err := ParsePAT(sec); err == nil {
		t.Error("corrupted PAT must fail CRC")
	}
}

func TestPESTimestampRoundTrip(t *testing.T) {
	cases := []struct{ pts, dts int64 }{
		{0, NoTimestamp},
		{90000, 90000},
		{90000, 87000},
		{1<<33 - 1, 1<<33 - 2},
	}
	for _, c := range cases {
		p := PES{StreamID: StreamIDVideo, PTS: c.pts, DTS: c.dts, Data: []byte{1, 2, 3}}
		got, err := ParsePES(p.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got.PTS != c.pts {
			t.Errorf("PTS = %d, want %d", got.PTS, c.pts)
		}
		wantDTS := c.dts
		if c.dts == NoTimestamp {
			wantDTS = c.pts // DTS defaults to PTS
		}
		if got.DTS != wantDTS {
			t.Errorf("DTS = %d, want %d", got.DTS, wantDTS)
		}
		if !bytes.Equal(got.Data, p.Data) {
			t.Error("data mismatch")
		}
	}
}

func TestPESLargePayloadUnbounded(t *testing.T) {
	p := PES{StreamID: StreamIDVideo, PTS: 1234, DTS: 1234, Data: make([]byte, 100_000)}
	got, err := ParsePES(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 100_000 {
		t.Errorf("data len = %d", len(got.Data))
	}
}

func TestTicksConversion(t *testing.T) {
	d := 3600 * time.Millisecond
	if got := FromTicks(ToTicks(d)); got != d {
		t.Errorf("round trip %v -> %v", d, got)
	}
	if ToTicks(time.Second) != 90000 {
		t.Errorf("1s = %d ticks, want 90000", ToTicks(time.Second))
	}
}

func TestBuildPacketSizes(t *testing.T) {
	// Everything must come out exactly 188 bytes regardless of payload.
	for _, n := range []int{0, 1, 10, 183, 184, 200} {
		payload := make([]byte, n)
		pkt, used := buildPacket(PIDVideo, true, 3, false, nil, payload)
		if len(pkt) != PacketSize {
			t.Fatalf("packet size %d", len(pkt))
		}
		if used > n || (n <= 184 && used != n) {
			t.Errorf("payload %d: used %d", n, used)
		}
		parsed, err := ParsePacket(pkt[:])
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed.Payload) != used {
			t.Errorf("payload %d: parsed %d bytes, used %d", n, len(parsed.Payload), used)
		}
	}
}

func TestPacketPCR(t *testing.T) {
	pcr := uint64(27_000_000 * 5) // 5 seconds in 27 MHz
	pkt, _ := buildPacket(PIDVideo, true, 0, true, &pcr, []byte{1, 2, 3})
	parsed, err := ParsePacket(pkt[:])
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.HasPCR || parsed.PCR != pcr {
		t.Errorf("PCR = %d (has=%v), want %d", parsed.PCR, parsed.HasPCR, pcr)
	}
	if !parsed.RandomAccess {
		t.Error("random access flag lost")
	}
}

func TestMuxDemuxRoundTrip(t *testing.T) {
	m := NewMuxer()
	videoData := [][]byte{
		bytes.Repeat([]byte{0xAA}, 3000),
		bytes.Repeat([]byte{0xBB}, 150),
		bytes.Repeat([]byte{0xCC}, 40_000),
	}
	for i, d := range videoData {
		pts := time.Duration(i) * 40 * time.Millisecond
		m.WriteVideo(pts, pts, i == 0, d)
	}
	m.WriteAudio(10*time.Millisecond, bytes.Repeat([]byte{0xDD}, 120))

	ts := m.Bytes()
	if len(ts)%PacketSize != 0 {
		t.Fatalf("stream length %d not packet aligned", len(ts))
	}
	units, err := DemuxAll(ts)
	if err != nil {
		t.Fatal(err)
	}
	var video, audio []AccessUnit
	for _, u := range units {
		switch u.PID {
		case PIDVideo:
			video = append(video, u)
		case PIDAudio:
			audio = append(audio, u)
		}
	}
	if len(video) != 3 || len(audio) != 1 {
		t.Fatalf("video=%d audio=%d", len(video), len(audio))
	}
	for i, u := range video {
		if !bytes.Equal(u.Data, videoData[i]) {
			t.Errorf("video %d data mismatch: %d vs %d bytes", i, len(u.Data), len(videoData[i]))
		}
		wantPTS := ToTicks(time.Duration(i) * 40 * time.Millisecond)
		if u.PTS != wantPTS {
			t.Errorf("video %d PTS = %d, want %d", i, u.PTS, wantPTS)
		}
	}
	if !video[0].Keyframe || video[1].Keyframe {
		t.Error("keyframe flags wrong")
	}
	if !bytes.Equal(audio[0].Data, bytes.Repeat([]byte{0xDD}, 120)) {
		t.Error("audio data mismatch")
	}
}

func TestDemuxTables(t *testing.T) {
	m := NewMuxer()
	m.WriteVideo(0, 0, true, []byte{1})
	d := NewDemuxer()
	if err := d.Feed(m.Bytes()); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	pat, ok := d.PAT()
	if !ok || pat.PMTPID != PIDPMT {
		t.Errorf("PAT = %+v ok=%v", pat, ok)
	}
	pmt, ok := d.PMT()
	if !ok || len(pmt.Streams) != 2 {
		t.Errorf("PMT = %+v ok=%v", pmt, ok)
	}
}

func TestDemuxContinuityErrors(t *testing.T) {
	m := NewMuxer()
	for i := 0; i < 10; i++ {
		m.WriteVideo(time.Duration(i)*time.Millisecond*40, 0, false, bytes.Repeat([]byte{1}, 5000))
	}
	ts := m.Bytes()
	// Drop a mid-stream packet to force a CC gap.
	cut := ts[:30*PacketSize]
	cut = append(cut, ts[31*PacketSize:]...)
	d := NewDemuxer()
	if err := d.Feed(cut); err != nil {
		t.Fatal(err)
	}
	if d.ContinuityErrors == 0 {
		t.Error("dropped packet not detected")
	}
}

func TestFeedMisaligned(t *testing.T) {
	d := NewDemuxer()
	if err := d.Feed(make([]byte, 100)); err == nil {
		t.Error("want error for misaligned feed")
	}
}

func TestPESPropertyRoundTrip(t *testing.T) {
	f := func(data []byte, pts uint32) bool {
		p := PES{StreamID: StreamIDVideo, PTS: int64(pts), DTS: int64(pts), Data: data}
		got, err := ParsePES(p.Marshal())
		return err == nil && bytes.Equal(got.Data, data) && got.PTS == int64(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMuxerSpliceableSegments(t *testing.T) {
	// Draining the muxer per segment must keep continuity counters valid
	// across segment boundaries (a client concatenating segments sees no
	// CC errors).
	m := NewMuxer()
	var all []byte
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 5; i++ {
			m.WriteVideo(0, 0, i == 0, bytes.Repeat([]byte{byte(i)}, 2000))
		}
		all = append(all, m.Bytes()...)
	}
	d := NewDemuxer()
	if err := d.Feed(all); err != nil {
		t.Fatal(err)
	}
	if d.ContinuityErrors != 0 {
		t.Errorf("continuity errors across segments: %d", d.ContinuityErrors)
	}
}

// TestMuxerSizesSegmentFromLast: on a steady stream each segment after the
// first costs the muxer about one buffer of its own size, sized from the
// segment before it, instead of regrowing from nothing by half at a time
// (≈ 3× the segment, and a copy at every step).
func TestMuxerSizesSegmentFromLast(t *testing.T) {
	cfg := media.DefaultEncoderConfig()
	cfg.DropProb = 0
	enc := media.NewEncoder(cfg, time.Unix(1000, 0))
	// Render the stream first so the measurement sees only the muxer.
	type accessUnit struct {
		pts, dts time.Duration
		key      bool
		annexB   []byte
	}
	var aus []accessUnit
	for len(aus) == 0 || aus[len(aus)-1].pts < 40*time.Second {
		f := enc.NextFrame()
		aus = append(aus, accessUnit{f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs)})
	}

	const target = 3600 * time.Millisecond
	m := NewMuxer()
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	segments, start, before := 0, time.Duration(0), allocated()
	for _, au := range aus {
		if au.key && au.pts-start >= target {
			seg := m.Bytes()
			ratio := float64(allocated()-before) / float64(len(seg))
			t.Logf("segment %d: %d bytes, muxer allocated %.2f× that", segments, len(seg), ratio)
			if segments > 0 && ratio > 1.3 {
				t.Errorf("segment %d: muxer allocated %.2f× its %d bytes, want ≤ 1.3×", segments, ratio, len(seg))
			}
			segments++
			start, before = au.pts, allocated()
		}
		m.WriteVideo(au.pts, au.dts, au.key, au.annexB)
	}
	if segments < 5 {
		t.Fatalf("only %d segments cut", segments)
	}
}
