package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"periscope/internal/aac"
	"periscope/internal/broadcastmodel"
	"periscope/internal/media"
	"periscope/internal/service"
)

// Measured broadcasts are picked from a stratum, not at random: the seed
// decides the population, but a broadcast's encoder settings decide its
// segment size and duration, and with them every per-request number. The
// stratum keeps those alike across seeds, so a different seed changes the
// inputs without changing what is being measured.
const (
	// profileBitrate is the reference stream rate in bits/s, video plus
	// audio: the middle of the 200-400 kbps population.
	profileBitrate = 340_000
	// profileFPS gives 108-frame segments of 4.8 s: each edge revalidates a
	// polled playlist every 2 s, and 4.8 mod 2 = 0.8 walks a viewer's
	// consecutive segments across that cycle, where a duration near a
	// multiple of 2 s would pin every sample of a viewer to one phase of it.
	profileFPS = 22.5
	// profileProbe is how much of a candidate's stream is encoded (sizes
	// only) to learn the rate it settles at: the target alone misses what
	// content class and the QP clamps do to it.
	profileProbe = 10 * time.Second
)

// profileDistance scores how far a broadcast's synthetic stream sits from
// the reference profile. It draws from the broadcast's seed in the order the
// service does when the broadcaster starts (encoder settings, then the
// audio-rate coin); if that order ever changes the stratum only gets wider.
func profileDistance(b *broadcastmodel.Broadcast) float64 {
	rng := rand.New(rand.NewSource(b.Seed))
	cfg := media.RandomEncoderConfig(rng)
	if cfg.Pattern != media.GOPIBP {
		return math.Inf(1)
	}
	audio := aac.DefaultConfig().Bitrate
	if rng.Intn(2) == 1 {
		audio = 64000
	}
	cfg.EmitPayload = false
	enc := media.NewEncoder(cfg, time.Time{})
	frames := int(profileProbe.Seconds() * cfg.FrameRate)
	var bits int
	for i := 0; i < frames; i++ {
		bits += enc.NextFrame().Bits
	}
	rate := float64(bits)/profileProbe.Seconds() + float64(audio)
	return math.Abs(cfg.FrameRate-profileFPS)/12 + math.Abs(rate-profileBitrate)/profileBitrate
}

// pickBroadcasts returns the n public live broadcasts nearest the reference
// profile among those accept admits, nearest first. Candidates are ordered
// by score, then ID, so neither map order nor the wall clock decides
// which broadcasts run.
func pickBroadcasts(svc *service.Service, n int, accept func(*broadcastmodel.Broadcast) bool) ([]*broadcastmodel.Broadcast, error) {
	type scored struct {
		b *broadcastmodel.Broadcast
		d float64
	}
	var cands []scored
	for _, b := range svc.Pop.Live() {
		if b.Private || (accept != nil && !accept(b)) {
			continue
		}
		if d := profileDistance(b); !math.IsInf(d, 1) {
			cands = append(cands, scored{b, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].b.ID < cands[j].b.ID
	})
	if len(cands) < n {
		return nil, fmt.Errorf("only %d of %d candidate broadcasts", len(cands), n)
	}
	out := make([]*broadcastmodel.Broadcast, n)
	for i := range out {
		out[i] = cands[i].b
	}
	return out, nil
}

// promote makes b a popular broadcast the way scenario.PickBroadcast does
// (base audience raised, start backdated ten minutes) and pins
// its scheduled end an hour out. It must run before any traffic touches b.
func promote(svc *service.Service, cfg service.Config, b *broadcastmodel.Broadcast) error {
	now := svc.Pop.Now()
	b.BaseViewers = 500
	// Always ten minutes old: past the arrival ramp, and before the slow
	// decay that takes an hours-old cast back under the HLS threshold.
	b.Start = now.Add(-10 * time.Minute)
	if !svc.Pop.EndAt(b.ID, now.Add(time.Hour)) {
		return fmt.Errorf("broadcast %s is not live", b.ID)
	}
	if v := b.ViewersAt(now); v < cfg.HLSViewerThreshold {
		return fmt.Errorf("promoted broadcast %s has %d < %d viewers", b.ID, v, cfg.HLSViewerThreshold)
	}
	return nil
}

// startHLS promotes b and starts its pipeline through the real AccessVideo
// policy, returning the HLS base URL on the hash-preferred POP.
func startHLS(svc *service.Service, cfg service.Config, b *broadcastmodel.Broadcast) (string, error) {
	if err := promote(svc, cfg, b); err != nil {
		return "", err
	}
	acc, err := svc.AccessVideo(b.ID)
	if err != nil {
		return "", fmt.Errorf("accessVideo %s: %w", b.ID, err)
	}
	if acc.HLSBaseURL == "" {
		return "", fmt.Errorf("accessVideo %s: protocol %s, want HLS", b.ID, acc.Protocol)
	}
	return acc.HLSBaseURL, nil
}

// waitSegments polls until every broadcast has produced at least n segments.
func waitSegments(svc *service.Service, ids []string, n int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		ready := true
		for _, id := range ids {
			if svc.BroadcastSegments(id) < n {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout after %v waiting for %d segments on %d broadcasts", within, n, len(ids))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
