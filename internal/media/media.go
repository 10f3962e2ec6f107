// Package media implements the synthetic video/audio source that stands in
// for real Periscope broadcast content. It reproduces the causal structure
// behind the paper's video-quality findings (§5.2):
//
//   - content complexity varies wildly between and within broadcasts (one
//     person talking in front of a static background vs. soccer matches
//     captured from a TV screen), modelled as a regime-switching process;
//   - a rate controller adjusts the quantization parameter (QP) to chase a
//     target bitrate, so static content drives QP down (and bitrate below
//     target) while complex content drives QP up — producing the
//     QP-vs-bitrate scatter of Fig. 6(b);
//   - GOP structure follows the observed patterns: mostly a repeated IBP
//     scheme with an I frame about every 36 frames, ~20% of encodings
//     using only I and P frames, and rare I-only streams with very poor
//     coding efficiency (explaining the RTMP bitrate outliers);
//   - the frame rate is variable up to 30 fps and frames are occasionally
//     dropped (the paper notes missing frames requiring concealment).
//
// The encoder emits real H.264 NAL units (internal/avc) whose slice
// headers carry the QP and whose SEI messages carry broadcaster NTP
// timestamps, so downstream capture analysis parses genuine bitstreams.
package media

import (
	"math"
	"math/rand"
	"time"

	"periscope/internal/avc"
)

// FrameType is the coded picture type.
type FrameType uint8

// Frame types.
const (
	FrameI FrameType = iota
	FrameP
	FrameB
)

func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	default:
		return "B"
	}
}

// GOPPattern describes the frame-type sequence of a stream.
type GOPPattern uint8

// GOP patterns observed in the study (§5.2).
const (
	GOPIBP   GOPPattern = iota // repeated IBP scheme (most streams)
	GOPIP                      // I and P only (~20% of streams)
	GOPIOnly                   // I frames only (2 cases; very poor efficiency)
)

func (g GOPPattern) String() string {
	switch g {
	case GOPIBP:
		return "IBP"
	case GOPIP:
		return "IP"
	default:
		return "I-only"
	}
}

// PickGOPPattern draws a pattern with the shares reported in the paper.
func PickGOPPattern(rng *rand.Rand) GOPPattern {
	r := rng.Float64()
	switch {
	case r < 0.007: // "just I in 2 cases" out of a few hundred
		return GOPIOnly
	case r < 0.007+0.195: // 18.4-20.0% use I and P only
		return GOPIP
	default:
		return GOPIBP
	}
}

// ContentClass is the kind of scene being broadcast.
type ContentClass uint8

// Content classes spanning the variability the paper attributes the
// bitrate spread to.
const (
	ContentStatic     ContentClass = iota // person talking, static background
	ContentModerate                       // walking tour, moderate motion
	ContentHighMotion                     // sports/TV screen captures
)

func (c ContentClass) String() string {
	switch c {
	case ContentStatic:
		return "static"
	case ContentModerate:
		return "moderate"
	default:
		return "high-motion"
	}
}

// PickContentClass draws a class; static talkers dominate the service.
func PickContentClass(rng *rand.Rand) ContentClass {
	r := rng.Float64()
	switch {
	case r < 0.55:
		return ContentStatic
	case r < 0.85:
		return ContentModerate
	default:
		return ContentHighMotion
	}
}

// baseComplexity returns the mean complexity multiplier per class.
func (c ContentClass) baseComplexity() float64 {
	switch c {
	case ContentStatic:
		return 0.35
	case ContentModerate:
		return 1.0
	default:
		return 2.2
	}
}

// Complexity is a regime-switching AR(1) process modelling how hard the
// captured scene is to encode over time ("extreme time variability of the
// captured content").
type Complexity struct {
	rng   *rand.Rand
	class ContentClass
	cur   float64
	// sceneProb is the per-frame probability of an abrupt scene change.
	sceneProb float64
}

// NewComplexity creates the process for a content class.
func NewComplexity(class ContentClass, rng *rand.Rand) *Complexity {
	return &Complexity{rng: rng, class: class, cur: class.baseComplexity(), sceneProb: 0.004}
}

// Next advances the process one frame and returns the complexity in
// roughly [0.1, 4].
func (c *Complexity) Next() float64 {
	base := c.class.baseComplexity()
	if c.rng.Float64() < c.sceneProb {
		// Scene change: jump towards a new random level.
		c.cur = base * math.Exp(0.8*c.rng.NormFloat64())
	}
	// AR(1) pull towards the class mean with small per-frame noise.
	c.cur = c.cur + 0.05*(base-c.cur) + 0.04*base*c.rng.NormFloat64()
	if c.cur < 0.1 {
		c.cur = 0.1
	}
	if c.cur > 4 {
		c.cur = 4
	}
	return c.cur
}

// Rate-control constants.
const (
	MinQP = 12
	MaxQP = 48
	// refQP is the QP at which the size model is calibrated.
	refQP = 30
	// refBitsPerFrame is the bits a complexity-1.0 P frame costs at refQP
	// for 320x568 video. Calibrated so an IBP stream at ~24 fps and
	// complexity 1 lands near 320 kbps.
	refBitsPerFrame = 5300
)

// frameTypeWeight reflects the relative cost of each frame type.
func frameTypeWeight(t FrameType) float64 {
	switch t {
	case FrameI:
		return 6.0
	case FrameP:
		return 1.0
	default:
		return 0.55
	}
}

// FrameBits models the size in bits of a coded frame.
func FrameBits(t FrameType, complexity float64, qp int) int {
	bits := frameTypeWeight(t) * complexity * refBitsPerFrame * math.Exp2(float64(refQP-qp)/6)
	if bits < 256 {
		bits = 256
	}
	return int(bits)
}

// RateController adapts QP to keep the output near the target bitrate,
// mimicking the QP adjustment described in §5.2 ("the so called
// quantization parameter (QP) is dynamically adjusted").
type RateController struct {
	targetBps float64
	qp        float64
	ewmaBps   float64
	alpha     float64
}

// NewRateController returns a controller for the given target bitrate.
func NewRateController(targetBps int) *RateController {
	return &RateController{
		targetBps: float64(targetBps),
		qp:        refQP,
		ewmaBps:   float64(targetBps),
		alpha:     0.08,
	}
}

// QP returns the current integer QP.
func (rc *RateController) QP() int {
	q := int(math.Round(rc.qp))
	if q < MinQP {
		return MinQP
	}
	if q > MaxQP {
		return MaxQP
	}
	return q
}

// Observe feeds back the bits just produced over the given frame interval
// and nudges QP proportionally in the log-rate domain.
func (rc *RateController) Observe(bits int, frameInterval time.Duration) {
	if frameInterval <= 0 {
		return
	}
	inst := float64(bits) / frameInterval.Seconds()
	rc.ewmaBps = (1-rc.alpha)*rc.ewmaBps + rc.alpha*inst
	// +6 QP halves the rate, so log2 error maps directly to QP steps.
	err := math.Log2(rc.ewmaBps / rc.targetBps)
	rc.qp += 0.5 * err
	if rc.qp < MinQP {
		rc.qp = MinQP
	}
	if rc.qp > MaxQP {
		rc.qp = MaxQP
	}
}

// EncoderConfig configures a synthetic broadcast encoder.
type EncoderConfig struct {
	TargetBitrate int           // bits per second, typically 200k-400k
	FrameRate     float64       // nominal fps, up to 30
	Pattern       GOPPattern    // frame-type pattern
	Class         ContentClass  // content kind
	IDRPeriod     int           // frames between I frames (paper: ~36)
	SEIPeriod     time.Duration // how often to embed an NTP timestamp SEI
	DropProb      float64       // per-frame chance the frame goes missing
	EmitPayload   bool          // build real NAL bytes (wire paths) or sizes only
	Seed          int64
}

// DefaultEncoderConfig returns a configuration matching the typical stream
// the paper measured.
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{
		TargetBitrate: 320_000,
		FrameRate:     24,
		Pattern:       GOPIBP,
		Class:         ContentModerate,
		IDRPeriod:     36,
		SEIPeriod:     time.Second,
		DropProb:      0.002,
		EmitPayload:   true,
		Seed:          1,
	}
}

// RandomEncoderConfig draws a per-broadcast configuration from the
// population the paper describes: bitrate targets spread over
// ~200-400 kbps, variable frame rate, mostly IBP.
func RandomEncoderConfig(rng *rand.Rand) EncoderConfig {
	cfg := DefaultEncoderConfig()
	cfg.TargetBitrate = 200_000 + rng.Intn(200_001)
	cfg.FrameRate = 18 + rng.Float64()*12 // up to 30 fps, variable
	cfg.Pattern = PickGOPPattern(rng)
	cfg.Class = PickContentClass(rng)
	cfg.Seed = rng.Int63()
	if cfg.Pattern == GOPIOnly {
		// Poor-efficiency stream: no temporal prediction; these produce
		// the high-bitrate outliers seen for RTMP in Fig. 6(a).
		cfg.TargetBitrate = 600_000 + rng.Intn(650_001)
	}
	return cfg
}

// Frame is one encoded video frame.
type Frame struct {
	Index    int
	Type     FrameType
	PTS      time.Duration // presentation timestamp from stream start
	DTS      time.Duration // decode timestamp (B frames reorder)
	QP       int
	Bits     int
	Dropped  bool // frame went missing in capture (needs concealment)
	Keyframe bool
	// NALs is populated when EmitPayload is set: SEI/SPS/PPS headers on
	// IDR boundaries, then the slice NAL itself.
	NALs []avc.NALUnit
}

// Encoder produces the synthetic coded stream for one broadcast.
type Encoder struct {
	cfg        EncoderConfig
	rng        *rand.Rand
	complexity *Complexity
	rc         *RateController
	sps        avc.SPS
	pps        avc.PPS
	frameIdx   int
	frameNum   uint32
	idrID      uint32
	lastSEI    time.Duration
	// start is the broadcaster wall-clock time of stream start, used to
	// stamp SEI NTP timestamps.
	start time.Time
}

// NewEncoder creates an encoder. start anchors PTS 0 to wall-clock time
// for SEI timestamp embedding.
func NewEncoder(cfg EncoderConfig, start time.Time) *Encoder {
	if cfg.FrameRate <= 0 {
		cfg.FrameRate = 24
	}
	if cfg.IDRPeriod <= 0 {
		cfg.IDRPeriod = 36
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sps := avc.DefaultSPS()
	if rng.Intn(2) == 0 { // orientation: portrait or landscape
		sps.Width, sps.Height = sps.Height, sps.Width
	}
	return &Encoder{
		cfg:        cfg,
		rng:        rng,
		complexity: NewComplexity(cfg.Class, rng),
		rc:         NewRateController(cfg.TargetBitrate),
		sps:        sps,
		pps:        avc.DefaultPPS(),
		start:      start,
		lastSEI:    -cfg.SEIPeriod, // embed a timestamp immediately
	}
}

// SPS returns the stream's sequence parameter set.
func (e *Encoder) SPS() avc.SPS { return e.sps }

// PPS returns the stream's picture parameter set.
func (e *Encoder) PPS() avc.PPS { return e.pps }

// frameTypeAt returns the coded type for position i within the IDR period.
func (e *Encoder) frameTypeAt(i int) FrameType {
	pos := i % e.cfg.IDRPeriod
	if pos == 0 {
		return FrameI
	}
	switch e.cfg.Pattern {
	case GOPIOnly:
		return FrameI
	case GOPIP:
		return FrameP
	default: // IBP: alternate B and P after the I
		if pos%2 == 1 {
			return FrameB
		}
		return FrameP
	}
}

// NextFrame produces the next frame in decode order.
func (e *Encoder) NextFrame() Frame {
	i := e.frameIdx
	e.frameIdx++

	// Variable frame rate: jitter the nominal interval per frame.
	interval := time.Duration(float64(time.Second) / e.cfg.FrameRate)
	pts := time.Duration(i) * interval

	typ := e.frameTypeAt(i)
	complexity := e.complexity.Next()
	qp := e.rc.QP()
	bits := FrameBits(typ, complexity, qp)
	e.rc.Observe(bits, interval)

	f := Frame{
		Index:    i,
		Type:     typ,
		PTS:      pts,
		DTS:      pts,
		QP:       qp,
		Bits:     bits,
		Keyframe: typ == FrameI,
		Dropped:  e.rng.Float64() < e.cfg.DropProb,
	}
	if typ == FrameB {
		// One B frame of reordering delay (paper §5.2 notes the one-frame
		// latency cost of B frames).
		f.DTS = pts - interval
	}

	if e.cfg.EmitPayload && !f.Dropped {
		f.NALs = e.buildNALs(f)
	}
	return f
}

// buildNALs assembles the NAL units for a frame: parameter sets on IDR,
// periodic SEI timestamps, and the slice itself with filler payload sized
// by the rate model.
func (e *Encoder) buildNALs(f Frame) []avc.NALUnit {
	var units []avc.NALUnit
	idr := false
	if f.Type == FrameI {
		idr = true
		e.idrID++
		e.frameNum = 0
		units = append(units,
			avc.NALUnit{RefIDC: 3, Type: avc.NALSPS, RBSP: e.sps.Marshal()},
			avc.NALUnit{RefIDC: 3, Type: avc.NALPPS, RBSP: e.pps.Marshal()},
		)
	}
	if f.PTS-e.lastSEI >= e.cfg.SEIPeriod {
		e.lastSEI = f.PTS
		units = append(units, avc.MarshalTimestampSEI(e.start.Add(f.PTS)))
	}
	var st avc.SliceType
	switch f.Type {
	case FrameI:
		st = avc.SliceI
	case FrameP:
		st = avc.SliceP
	default:
		st = avc.SliceB
	}
	h := avc.SliceHeader{
		Type:     st,
		FrameNum: e.frameNum,
		IDR:      idr,
		IDRPicID: e.idrID % 16,
		QPDelta:  int32(f.QP) - e.pps.PicInitQP,
	}
	if f.Type != FrameB {
		e.frameNum++
	}
	payloadBytes := f.Bits / 8
	if payloadBytes < 8 {
		payloadBytes = 8
	}
	payload := make([]byte, payloadBytes)
	e.rng.Read(payload)
	units = append(units, avc.MarshalSlice(h, e.sps, payload))
	return units
}

// FrameInterval returns the nominal frame spacing.
func (e *Encoder) FrameInterval() time.Duration {
	return time.Duration(float64(time.Second) / e.cfg.FrameRate)
}
