package flv

import (
	"bytes"
	"testing"

	"periscope/internal/avc"
)

func TestVideoTagRoundTrip(t *testing.T) {
	v := VideoTagData{
		FrameType:       VideoKeyFrame,
		PacketType:      AVCNALU,
		CompositionTime: 42,
		Data:            []byte{1, 2, 3},
	}
	got, err := ParseVideoTagData(v.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameType != VideoKeyFrame || got.PacketType != AVCNALU ||
		got.CompositionTime != 42 || !bytes.Equal(got.Data, v.Data) {
		t.Errorf("got %+v", got)
	}
}

func TestVideoTagNegativeCompositionTime(t *testing.T) {
	v := VideoTagData{FrameType: VideoInterFrame, PacketType: AVCNALU, CompositionTime: -40}
	got, err := ParseVideoTagData(v.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.CompositionTime != -40 {
		t.Errorf("composition time = %d, want -40", got.CompositionTime)
	}
}

func TestAudioTagRoundTrip(t *testing.T) {
	a := AudioTagData{PacketType: AACRaw, Data: []byte{9, 8, 7}}
	got, err := ParseAudioTagData(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketType != AACRaw || !bytes.Equal(got.Data, a.Data) {
		t.Errorf("got %+v", got)
	}
}

func TestShortTags(t *testing.T) {
	if _, err := ParseVideoTagData([]byte{1}); err == nil {
		t.Error("want error for short video tag")
	}
	if _, err := ParseAudioTagData([]byte{}); err == nil {
		t.Error("want error for short audio tag")
	}
}

func TestWrongCodec(t *testing.T) {
	if _, err := ParseVideoTagData([]byte{0x12, 0, 0, 0, 0}); err == nil {
		t.Error("want error for non-AVC codec")
	}
	if _, err := ParseAudioTagData([]byte{0x2F, 0}); err == nil {
		t.Error("want error for non-AAC format")
	}
}

func TestDecoderConfigRoundTrip(t *testing.T) {
	sps := avc.DefaultSPS()
	pps := avc.PPS{PicInitQP: 28}
	rec := DecoderConfig(sps, pps)
	gotSPS, gotPPS, err := ParseDecoderConfig(rec)
	if err != nil {
		t.Fatal(err)
	}
	if gotSPS.Width != sps.Width || gotSPS.Height != sps.Height {
		t.Errorf("SPS %dx%d, want %dx%d", gotSPS.Width, gotSPS.Height, sps.Width, sps.Height)
	}
	if gotPPS.PicInitQP != 28 {
		t.Errorf("PPS QP = %d, want 28", gotPPS.PicInitQP)
	}
}

func TestDecoderConfigTruncated(t *testing.T) {
	rec := DecoderConfig(avc.DefaultSPS(), avc.DefaultPPS())
	for cut := 1; cut < len(rec); cut++ {
		ParseDecoderConfig(rec[:cut]) // must not panic
	}
}
