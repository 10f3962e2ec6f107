package avc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The fuzz targets cover the NAL framing a video tag carries from the
// broadcaster to the packager: arbitrary AVCC is refused or converted
// without a panic, the one-pass conversion agrees with the two-pass
// reference, and AVCC round-trips through its marshalling twin. Seeds:
// testdata/fuzz/.

// seedUnits has every escaping case in it: start-code lookalikes, a
// literal emulation byte, trailing zeros and an empty payload.
var seedUnits = []NALUnit{
	{RefIDC: 3, Type: NALSPS, RBSP: DefaultSPS().Marshal()},
	{RefIDC: 0, Type: NALSEI, RBSP: []byte{5, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0x80}},
	{RefIDC: 2, Type: NALSliceIDR, RBSP: []byte{0x88, 0, 0, 3, 4, 0, 0}},
	{RefIDC: 0, Type: NALFiller},
}

func FuzzAVCCToAnnexB(f *testing.F) {
	f.Add(MarshalAVCC(seedUnits))
	f.Add([]byte{0, 0, 0, 4, 0x65, 0, 0, 0})    // raw zeros the escaper must fix
	f.Add([]byte{0, 0, 0, 5, 0x41, 0, 0, 3, 9}) // a 0x03 the unescaper keeps
	f.Add([]byte{0, 0, 0, 2, 0x85, 1})          // forbidden_zero_bit
	f.Fuzz(func(t *testing.T, avcc []byte) {
		units, werr := ParseAVCC(avcc)
		prefix := []byte{0xAA}
		got, err := AppendAnnexBFromAVCC(prefix, avcc)
		if (err == nil) != (werr == nil) {
			t.Fatalf("AppendAnnexBFromAVCC error %v, ParseAVCC error %v", err, werr)
		}
		if err != nil {
			return
		}
		if want := MarshalAnnexB(units); got[0] != 0xAA || !bytes.Equal(got[1:], want) {
			t.Fatalf("one pass = % x\nreference = % x", got, want)
		}
	})
}

func FuzzParseAVCC(f *testing.F) {
	f.Add(encodeUnits(seedUnits))
	f.Add([]byte{0x65, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		units := decodeUnits(data)
		avcc := AppendAVCC([]byte{0xAA}, units)
		if want := marshalAVCCRef(units); avcc[0] != 0xAA || !bytes.Equal(avcc[1:], want) {
			t.Fatalf("AppendAVCC = % x\nreference = % x", avcc, want)
		}
		back, err := ParseAVCC(avcc[1:])
		if err != nil || len(back) != len(units) {
			t.Fatalf("ParseAVCC = %d units, %v; want %d", len(back), err, len(units))
		}
		for i, u := range units {
			if back[i].Header() != u.Header() || !bytes.Equal(back[i].RBSP, u.RBSP) {
				t.Fatalf("unit %d = %+v, want %+v", i, back[i], u)
			}
		}
	})
}

// marshalAVCCRef is AVCC framing written out the long way: a length
// prefix, then the header and the escaped payload.
func marshalAVCCRef(units []NALUnit) []byte {
	var out []byte
	for _, u := range units {
		body := append([]byte{u.Header()}, EscapeRBSP(u.RBSP)...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
		out = append(out, body...)
	}
	return out
}

// decodeUnits reads fuzz bytes as units: a header byte (forbidden bit
// cleared), a payload length, then up to that many payload bytes.
func decodeUnits(data []byte) []NALUnit {
	var units []NALUnit
	for len(data) >= 2 {
		h, n := data[0]&0x7F, min(int(data[1]), len(data)-2)
		units = append(units, NALUnit{RefIDC: h >> 5, Type: NALType(h & 0x1F), RBSP: data[2 : 2+n]})
		data = data[2+n:]
	}
	return units
}

// encodeUnits is decodeUnits' inverse for payloads under 256 bytes.
func encodeUnits(units []NALUnit) []byte {
	var out []byte
	for _, u := range units {
		out = append(out, u.Header(), byte(len(u.RBSP)))
		out = append(out, u.RBSP...)
	}
	return out
}
