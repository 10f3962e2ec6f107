package aac

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestAudioSpecificConfig(t *testing.T) {
	// AAC-LC, 44.1 kHz, stereo is the well-known 0x12 0x10 pair.
	got := Config{Channels: 2}.AudioSpecificConfig()
	if !bytes.Equal(got, []byte{0x12, 0x10}) {
		t.Errorf("ASC = %x, want 1210", got)
	}
	mono := Config{Channels: 1}.AudioSpecificConfig()
	if !bytes.Equal(mono, []byte{0x12, 0x08}) {
		t.Errorf("mono ASC = %x, want 1208", mono)
	}
}

func TestADTSRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	frame := MarshalADTS(cfg, payload)
	got, n, err := ParseADTS(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Errorf("consumed %d, want %d", n, len(frame))
	}
	if got.Channels != 2 {
		t.Errorf("channels = %d, want 2", got.Channels)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestADTSBadSync(t *testing.T) {
	if _, _, err := ParseADTS([]byte{0, 0, 0, 0, 0, 0, 0}); err != ErrNotADTS {
		t.Errorf("err = %v, want ErrNotADTS", err)
	}
}

func TestADTSTruncated(t *testing.T) {
	frame := MarshalADTS(DefaultConfig(), make([]byte, 50))
	if _, _, err := ParseADTS(frame[:20]); err == nil {
		t.Error("want error on truncated frame")
	}
}

func TestADTSRoundTripProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(payload []byte) bool {
		if len(payload) > 4000 {
			payload = payload[:4000]
		}
		frame := MarshalADTS(cfg, payload)
		got, n, err := ParseADTS(frame)
		return err == nil && n == len(frame) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameSizerBitrate(t *testing.T) {
	for _, target := range []int{32000, 64000} {
		s := NewFrameSizer(Config{Channels: 2, Bitrate: target}, 1)
		var total int
		n := 2000
		for i := 0; i < n; i++ {
			total += s.NextSize()
		}
		gotBitrate := float64(total) * 8 / (float64(n) * FrameDuration.Seconds())
		if math.Abs(gotBitrate-float64(target)) > 0.05*float64(target) {
			t.Errorf("bitrate = %v, want ~%d", gotBitrate, target)
		}
	}
}

func TestFrameDuration(t *testing.T) {
	// 1024 samples at 44100 Hz is ~23.2 ms.
	ms := FrameDuration.Seconds() * 1000
	if math.Abs(ms-23.22) > 0.05 {
		t.Errorf("FrameDuration = %v ms", ms)
	}
}

func TestNextFrameParses(t *testing.T) {
	s := NewFrameSizer(DefaultConfig(), 2)
	for i := 0; i < 50; i++ {
		f := s.NextFrame()
		if _, n, err := ParseADTS(f); err != nil || n != len(f) {
			t.Fatalf("frame %d: err=%v n=%d len=%d", i, err, n, len(f))
		}
	}
}
