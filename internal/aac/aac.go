// Package aac implements the AAC-LC framing observed in Periscope streams:
// ADTS headers for transport inside MPEG-TS, the 2-byte AudioSpecificConfig
// for FLV/RTMP sequence headers, and a VBR frame-size model producing
// 44.1 kHz stereo audio at roughly 32 or 64 kbps — "which seems enough to
// transmit almost any type of audio content with the quality expected from
// capturing through a mobile device" (§5.2).
package aac

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// SamplesPerFrame is the number of PCM samples one AAC frame covers.
const SamplesPerFrame = 1024

// SampleRate is the only sampling rate the study observed.
const SampleRate = 44100

// FrameDuration is the wall-clock duration of one AAC frame at 44.1 kHz.
const FrameDuration = time.Duration(SamplesPerFrame * int64(time.Second) / SampleRate)

// samplingFreqIndex44100 is the MPEG-4 sampling_frequency_index for 44100 Hz.
const samplingFreqIndex44100 = 4

// profileLC is the ADTS profile value for AAC-LC (object type 2 - 1).
const profileLC = 1

// Config describes an AAC stream.
type Config struct {
	Channels int // 1 or 2
	Bitrate  int // target bits per second (VBR average), e.g. 32000 or 64000
}

// DefaultConfig matches the typical observed stream: stereo ~32 kbps VBR.
func DefaultConfig() Config { return Config{Channels: 2, Bitrate: 32000} }

// AudioSpecificConfig returns the 2-byte MPEG-4 AudioSpecificConfig for
// AAC-LC at 44.1 kHz: 5 bits object type, 4 bits frequency index, 4 bits
// channel configuration, 3 bits zero.
func (c Config) AudioSpecificConfig() []byte {
	const objectTypeLC = 2
	b0 := byte(objectTypeLC<<3 | samplingFreqIndex44100>>1)
	b1 := byte(samplingFreqIndex44100&1)<<7 | byte(c.Channels&0xF)<<3
	return []byte{b0, b1}
}

// ADTSHeaderLen is the length of an ADTS header without CRC.
const ADTSHeaderLen = 7

// MarshalADTS wraps one raw AAC frame in an ADTS header (protection
// absent). The frame length field covers header plus payload.
func MarshalADTS(c Config, payload []byte) []byte {
	frameLen := ADTSHeaderLen + len(payload)
	if frameLen >= 1<<13 {
		panic(fmt.Sprintf("aac: frame too large: %d", frameLen))
	}
	h := make([]byte, ADTSHeaderLen, frameLen)
	h[0] = 0xFF
	h[1] = 0xF1 // MPEG-4, layer 00, protection_absent=1
	h[2] = profileLC<<6 | samplingFreqIndex44100<<2 | byte(c.Channels>>2)&1
	h[3] = byte(c.Channels&3)<<6 | byte(frameLen>>11)&0x3
	h[4] = byte(frameLen >> 3)
	h[5] = byte(frameLen&0x7)<<5 | 0x1F // buffer fullness high bits (VBR: 0x7FF)
	h[6] = 0xFC                         // buffer fullness low + frames-1 = 0
	return append(h, payload...)
}

// ADTSFrame is a parsed ADTS frame.
type ADTSFrame struct {
	Channels int
	Payload  []byte
}

// ErrNotADTS is returned when the sync word is missing.
var ErrNotADTS = errors.New("aac: missing ADTS sync word")

// ParseADTS parses one ADTS frame from the front of data and returns the
// frame and the number of bytes consumed.
func ParseADTS(data []byte) (ADTSFrame, int, error) {
	if len(data) < ADTSHeaderLen {
		return ADTSFrame{}, 0, errors.New("aac: short ADTS header")
	}
	if data[0] != 0xFF || data[1]&0xF6 != 0xF0 {
		return ADTSFrame{}, 0, ErrNotADTS
	}
	protAbsent := data[1]&1 == 1
	headerLen := ADTSHeaderLen
	if !protAbsent {
		headerLen += 2
	}
	frameLen := int(data[3]&0x3)<<11 | int(data[4])<<3 | int(data[5])>>5
	if frameLen < headerLen {
		return ADTSFrame{}, 0, fmt.Errorf("aac: frame length %d shorter than header", frameLen)
	}
	if frameLen > len(data) {
		return ADTSFrame{}, 0, fmt.Errorf("aac: truncated frame: need %d have %d", frameLen, len(data))
	}
	channels := int(data[2]&1)<<2 | int(data[3])>>6
	return ADTSFrame{Channels: channels, Payload: data[headerLen:frameLen]}, frameLen, nil
}

// FrameSizer produces VBR frame sizes averaging the configured bitrate.
// Sizes vary ±35% frame to frame, mimicking the variable bit rate mode the
// study observed.
type FrameSizer struct {
	cfg Config
	rng *rand.Rand
}

// NewFrameSizer returns a deterministic sizer seeded with seed.
func NewFrameSizer(cfg Config, seed int64) *FrameSizer {
	return &FrameSizer{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// NextSize returns the next frame's payload size in bytes.
func (s *FrameSizer) NextSize() int {
	mean := float64(s.cfg.Bitrate) / 8 * FrameDuration.Seconds()
	v := mean * (1 + 0.35*(2*s.rng.Float64()-1))
	if v < 8 {
		v = 8
	}
	return int(v)
}

// NextFrame returns the next synthetic ADTS frame.
func (s *FrameSizer) NextFrame() []byte {
	payload := make([]byte, s.NextSize())
	s.rng.Read(payload)
	return MarshalADTS(s.cfg, payload)
}
