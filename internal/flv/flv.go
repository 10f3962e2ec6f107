// Package flv implements the FLV tag formats that RTMP message payloads
// use for audio and video data: AVC video tags (keyframe/interframe, AVC
// sequence headers with AVCDecoderConfigurationRecord, composition-time
// offsets for B-frame reordering) and AAC audio tags (AudioSpecificConfig
// sequence headers).
package flv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"periscope/internal/avc"
)

// Video frame types (upper nibble of the first video-data byte).
const (
	VideoKeyFrame   = 1
	VideoInterFrame = 2
)

// CodecAVC is the FLV video codec id for H.264.
const CodecAVC = 7

// AVC packet types.
const (
	AVCSeqHeader = 0
	AVCNALU      = 1
	AVCEndOfSeq  = 2
)

// SoundFormatAAC is the FLV audio sound format for AAC.
const SoundFormatAAC = 10

// AAC packet types.
const (
	AACSeqHeader = 0
	AACRaw       = 1
)

// VideoTagData is the payload of an FLV video tag.
type VideoTagData struct {
	FrameType       int // VideoKeyFrame or VideoInterFrame
	PacketType      int // AVCSeqHeader, AVCNALU or AVCEndOfSeq
	CompositionTime int32
	Data            []byte // AVCC NALUs, or decoder config for seq header
}

// Marshal encodes the video tag data bytes.
func (v VideoTagData) Marshal() []byte { return v.Append(make([]byte, 0, 5+len(v.Data))) }

// Append appends the encoded video tag data to dst. With Data nil it
// appends the 5-byte header alone, for a caller that appends the NAL
// units after it (avc.AppendAVCC) instead of building them separately.
func (v VideoTagData) Append(dst []byte) []byte {
	dst = append(dst,
		byte(v.FrameType<<4|CodecAVC),
		byte(v.PacketType),
		byte(v.CompositionTime>>16),
		byte(v.CompositionTime>>8),
		byte(v.CompositionTime))
	return append(dst, v.Data...)
}

// ParseVideoTagData decodes video tag data bytes.
func ParseVideoTagData(data []byte) (VideoTagData, error) {
	if len(data) < 5 {
		return VideoTagData{}, errors.New("flv: short video tag")
	}
	if codec := data[0] & 0x0F; codec != CodecAVC {
		return VideoTagData{}, fmt.Errorf("flv: unsupported video codec %d", codec)
	}
	ct := int32(data[2])<<16 | int32(data[3])<<8 | int32(data[4])
	if ct&0x800000 != 0 {
		ct |= ^int32(0xFFFFFF) // sign-extend 24-bit
	}
	return VideoTagData{
		FrameType:       int(data[0] >> 4),
		PacketType:      int(data[1]),
		CompositionTime: ct,
		Data:            data[5:],
	}, nil
}

// AudioTagData is the payload of an FLV audio tag.
type AudioTagData struct {
	PacketType int // AACSeqHeader or AACRaw
	Data       []byte
}

// Marshal encodes the audio tag data bytes (AAC, 44.1 kHz, stereo, 16-bit).
func (a AudioTagData) Marshal() []byte { return a.Append(make([]byte, 0, 2+len(a.Data))) }

// Append appends the encoded audio tag data to dst.
func (a AudioTagData) Append(dst []byte) []byte {
	dst = append(dst, SoundFormatAAC<<4|3<<2|1<<1|1, byte(a.PacketType)) // 44k, 16-bit, stereo
	return append(dst, a.Data...)
}

// ParseAudioTagData decodes audio tag data bytes.
func ParseAudioTagData(data []byte) (AudioTagData, error) {
	if len(data) < 2 {
		return AudioTagData{}, errors.New("flv: short audio tag")
	}
	if f := data[0] >> 4; f != SoundFormatAAC {
		return AudioTagData{}, fmt.Errorf("flv: unsupported sound format %d", f)
	}
	return AudioTagData{PacketType: int(data[1]), Data: data[2:]}, nil
}

// DecoderConfig builds the AVCDecoderConfigurationRecord carried in an AVC
// sequence header tag.
func DecoderConfig(sps avc.SPS, pps avc.PPS) []byte {
	spsRBSP := sps.Marshal()
	spsNAL := append([]byte{avc.NALUnit{RefIDC: 3, Type: avc.NALSPS}.Header()}, avc.EscapeRBSP(spsRBSP)...)
	ppsRBSP := pps.Marshal()
	ppsNAL := append([]byte{avc.NALUnit{RefIDC: 3, Type: avc.NALPPS}.Header()}, avc.EscapeRBSP(ppsRBSP)...)

	out := []byte{
		1,              // configurationVersion
		sps.ProfileIDC, // AVCProfileIndication
		0,              // profile_compatibility
		sps.LevelIDC,   // AVCLevelIndication
		0xFF,           // lengthSizeMinusOne = 3 (4-byte lengths)
		0xE1,           // numOfSequenceParameterSets = 1
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(spsNAL)))
	out = append(out, spsNAL...)
	out = append(out, 1) // numOfPictureParameterSets
	out = binary.BigEndian.AppendUint16(out, uint16(len(ppsNAL)))
	out = append(out, ppsNAL...)
	return out
}

// ParseDecoderConfig extracts the SPS and PPS from a decoder configuration
// record.
func ParseDecoderConfig(data []byte) (avc.SPS, avc.PPS, error) {
	var sps avc.SPS
	var pps avc.PPS
	if len(data) < 7 || data[0] != 1 {
		return sps, pps, errors.New("flv: bad AVC decoder config")
	}
	numSPS := int(data[5] & 0x1F)
	p := 6
	for i := 0; i < numSPS; i++ {
		if len(data) < p+2 {
			return sps, pps, errors.New("flv: truncated SPS length")
		}
		n := int(binary.BigEndian.Uint16(data[p : p+2]))
		p += 2
		if len(data) < p+n || n == 0 {
			return sps, pps, errors.New("flv: truncated SPS")
		}
		var err error
		sps, err = avc.ParseSPS(avc.UnescapeRBSP(data[p+1 : p+n]))
		if err != nil {
			return sps, pps, err
		}
		p += n
	}
	if len(data) < p+1 {
		return sps, pps, errors.New("flv: missing PPS count")
	}
	numPPS := int(data[p])
	p++
	for i := 0; i < numPPS; i++ {
		if len(data) < p+2 {
			return sps, pps, errors.New("flv: truncated PPS length")
		}
		n := int(binary.BigEndian.Uint16(data[p : p+2]))
		p += 2
		if len(data) < p+n || n == 0 {
			return sps, pps, errors.New("flv: truncated PPS")
		}
		var err error
		pps, err = avc.ParsePPS(avc.UnescapeRBSP(data[p+1 : p+n]))
		if err != nil {
			return sps, pps, err
		}
		p += n
	}
	return sps, pps, nil
}
