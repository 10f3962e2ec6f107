// Package avc implements the subset of H.264/AVC bitstream syntax that the
// measurement study relies on: NAL unit framing (Annex B start codes and
// AVCC length prefixes), emulation prevention, SPS/PPS parameter sets,
// slice headers carrying the quantization parameter (QP) the paper extracts
// for Fig. 6(b), and SEI user-data messages carrying the NTP timestamps the
// broadcaster embeds into the video (used for delivery-latency measurement,
// Fig. 5).
//
// Periscope streams are 320x568 AVC with a variable frame rate up to
// 30 fps; the synthetic encoder in internal/media emits bitstreams with
// exactly those properties.
package avc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// NALType identifies the NAL unit type (low 5 bits of the NAL header).
type NALType uint8

// NAL unit types used in this implementation.
const (
	NALSliceNonIDR NALType = 1
	NALSliceIDR    NALType = 5
	NALSEI         NALType = 6
	NALSPS         NALType = 7
	NALPPS         NALType = 8
	NALAUD         NALType = 9
	NALFiller      NALType = 12
)

func (t NALType) String() string {
	switch t {
	case NALSliceNonIDR:
		return "slice"
	case NALSliceIDR:
		return "IDR"
	case NALSEI:
		return "SEI"
	case NALSPS:
		return "SPS"
	case NALPPS:
		return "PPS"
	case NALAUD:
		return "AUD"
	case NALFiller:
		return "filler"
	default:
		return fmt.Sprintf("NAL(%d)", uint8(t))
	}
}

// NALUnit is one network abstraction layer unit: header byte plus RBSP
// payload (unescaped).
type NALUnit struct {
	RefIDC uint8 // nal_ref_idc, 2 bits
	Type   NALType
	RBSP   []byte // raw byte sequence payload, without emulation prevention
}

// Header returns the one-byte NAL header.
func (n NALUnit) Header() byte { return n.RefIDC<<5 | byte(n.Type)&0x1F }

// ErrNoNAL is returned when scanning finds no NAL unit.
var ErrNoNAL = errors.New("avc: no NAL unit found")

// EscapeRBSP inserts emulation-prevention bytes (0x03) so that the byte
// patterns 0x000000, 0x000001 and 0x000002 never appear in the payload.
func EscapeRBSP(rbsp []byte) []byte {
	return appendEscaped(make([]byte, 0, len(rbsp)+len(rbsp)/64+8), rbsp)
}

// appendEscaped appends rbsp to dst with emulation prevention.
func appendEscaped(dst, rbsp []byte) []byte {
	zeros := 0
	for _, b := range rbsp {
		if zeros >= 2 && b <= 3 {
			dst = append(dst, 0x03)
			zeros = 0
		}
		dst = append(dst, b)
		if b == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	return dst
}

// appendReescaped appends EscapeRBSP(UnescapeRBSP(ebsp)) to dst without
// building the RBSP in between: in and out count the RBSP's trailing zeros
// as the unescaper and the escaper see them (each resets at its own 0x03).
// A byte with fewer than two zeros behind it on both sides is neither
// dropped nor escaped, so the run up to the next zero is copied as is.
func appendReescaped(dst, ebsp []byte) []byte {
	in, out := 0, 0
	for i := 0; i < len(ebsp); i++ {
		b := ebsp[i]
		if b != 0 && in < 2 && out < 2 {
			run := bytes.IndexByte(ebsp[i:], 0)
			if run < 0 {
				run = len(ebsp) - i
			}
			dst = append(dst, ebsp[i:i+run]...)
			in, out = 0, 0
			i += run - 1
			continue
		}
		if in >= 2 && b == 0x03 && i+1 < len(ebsp) && ebsp[i+1] <= 3 {
			in = 0
			continue // the unescaper drops it
		}
		if out >= 2 && b <= 3 {
			dst = append(dst, 0x03)
			out = 0
		}
		dst = append(dst, b)
		if b == 0 {
			in++
			out++
		} else {
			in, out = 0, 0
		}
	}
	return dst
}

// UnescapeRBSP removes emulation-prevention bytes.
func UnescapeRBSP(ebsp []byte) []byte {
	out := make([]byte, 0, len(ebsp))
	zeros := 0
	for i := 0; i < len(ebsp); i++ {
		b := ebsp[i]
		if zeros >= 2 && b == 0x03 && i+1 < len(ebsp) && ebsp[i+1] <= 3 {
			zeros = 0
			continue // drop the emulation prevention byte
		}
		out = append(out, b)
		if b == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	return out
}

// startCode is the 4-byte Annex B start code. (3-byte codes are also
// accepted when parsing.)
var startCode = []byte{0, 0, 0, 1}

// MarshalAnnexB serializes NAL units with 4-byte start codes and emulation
// prevention, the framing used inside MPEG-TS (HLS segments).
func MarshalAnnexB(units []NALUnit) []byte { return AppendAnnexB(nil, units) }

// AppendAnnexB appends units to dst in MarshalAnnexB's framing.
func AppendAnnexB(dst []byte, units []NALUnit) []byte {
	for _, u := range units {
		dst = append(dst, startCode...)
		dst = append(dst, u.Header())
		dst = appendEscaped(dst, u.RBSP)
	}
	return dst
}

// AppendAnnexBFromAVCC appends the Annex B form of an AVCC NAL stream to
// dst — byte for byte MarshalAnnexB(ParseAVCC(avcc)) — in one pass over
// avcc and with no allocation beyond dst's growth. It fails exactly when
// ParseAVCC does; dst's contents are then unspecified.
func AppendAnnexBFromAVCC(dst, avcc []byte) ([]byte, error) {
	for len(avcc) > 0 {
		ebsp, rest, err := nextAVCC(avcc)
		if err == nil {
			err = checkHeader(ebsp[0])
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, startCode...)
		dst = append(dst, ebsp[0])
		dst = appendReescaped(dst, ebsp[1:])
		avcc = rest
	}
	return dst, nil
}

// ParseAnnexB splits an Annex B stream into NAL units, accepting both
// 3- and 4-byte start codes.
func ParseAnnexB(data []byte) ([]NALUnit, error) {
	var units []NALUnit
	i := nextStartCode(data, 0)
	if i < 0 {
		return nil, ErrNoNAL
	}
	for i < len(data) {
		// Skip the start code itself.
		j := i
		if data[j] == 0 && data[j+1] == 0 && data[j+2] == 1 {
			j += 3
		} else {
			j += 4
		}
		end := nextStartCode(data, j)
		if end < 0 {
			end = len(data)
		}
		if j < end {
			u, err := decodeNAL(data[j:end])
			if err != nil {
				return units, err
			}
			units = append(units, u)
		}
		i = end
	}
	return units, nil
}

// nextStartCode returns the index of the next 3- or 4-byte start code at or
// after from, or -1.
func nextStartCode(data []byte, from int) int {
	for i := from; i+3 <= len(data); i++ {
		if data[i] == 0 && data[i+1] == 0 {
			if data[i+2] == 1 {
				// Prefer reporting the 4-byte form if a zero precedes.
				if i > from && data[i-1] == 0 {
					return i - 1
				}
				return i
			}
		}
	}
	return -1
}

func decodeNAL(ebsp []byte) (NALUnit, error) {
	if len(ebsp) == 0 {
		return NALUnit{}, ErrNoNAL
	}
	h := ebsp[0]
	if err := checkHeader(h); err != nil {
		return NALUnit{}, err
	}
	return NALUnit{
		RefIDC: h >> 5 & 0x3,
		Type:   NALType(h & 0x1F),
		RBSP:   UnescapeRBSP(ebsp[1:]),
	}, nil
}

func checkHeader(h byte) error {
	if h&0x80 != 0 {
		return fmt.Errorf("avc: forbidden_zero_bit set in NAL header %#x", h)
	}
	return nil
}

// MarshalAVCC serializes NAL units with 4-byte big-endian length prefixes,
// the framing used inside FLV/RTMP video tags.
func MarshalAVCC(units []NALUnit) []byte { return AppendAVCC(nil, units) }

// AppendAVCC appends units to dst in MarshalAVCC's framing.
func AppendAVCC(dst []byte, units []NALUnit) []byte {
	for _, u := range units {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0, u.Header())
		dst = appendEscaped(dst, u.RBSP)
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// ParseAVCC splits a length-prefixed NAL stream into units.
func ParseAVCC(data []byte) ([]NALUnit, error) {
	var units []NALUnit
	for len(data) > 0 {
		ebsp, rest, err := nextAVCC(data)
		if err != nil {
			return units, err
		}
		u, err := decodeNAL(ebsp)
		if err != nil {
			return units, err
		}
		units = append(units, u)
		data = rest
	}
	return units, nil
}

// nextAVCC splits the first unit off a non-empty AVCC stream: its bytes
// (never empty) and what follows it.
func nextAVCC(data []byte) (unit, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, errors.New("avc: truncated AVCC length")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)) || n == 0 {
		return nil, nil, fmt.Errorf("avc: AVCC unit length %d exceeds remaining %d", n, len(data))
	}
	return data[:n], data[n:], nil
}
