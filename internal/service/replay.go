package service

import (
	"math/rand"
	"time"

	"periscope/internal/api"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/hls"
	"periscope/internal/media"
)

// replayMaxDur caps how much of an ended broadcast is materialised as VOD.
const replayMaxDur = 90 * time.Second

// replaySuffix marks replay (VOD) mounts on the origin and POPs so they
// can be told apart from live broadcasts in snapshots.
const replaySuffix = "-replay"

// replayAccess builds (once) and serves an ended broadcast as an HLS VOD
// playlist from the CDN POPs, steered like a live viewer. The content is
// regenerated from the broadcast's media seed, so the replay is
// bit-identical to what the live pipeline produced.
func (s *Service) replayAccess(b *broadcastmodel.Broadcast) (api.AccessVideoResponse, error) {
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	key := b.ID + replaySuffix
	// The mount is made on every tier under replayMu: the origin having it
	// means every POP does.
	if !s.origin.has(key) {
		seg := buildReplay(b, s.cfg.SegmentTarget)
		s.origin.register(key, seg)
		for _, p := range s.cdn {
			p.register(key, seg)
		}
	}
	return api.AccessVideoResponse{
		Protocol:   "HLS",
		HLSBaseURL: s.selectPOP(b.ID).baseURL() + "/hls/" + key,
		StreamName: b.ID,
		Replay:     true,
	}, nil
}

// buildReplay renders the broadcast's stream into a VOD segment set.
func buildReplay(b *broadcastmodel.Broadcast, target time.Duration) *hls.Segmenter {
	dur := b.Duration()
	if dur > replayMaxDur {
		dur = replayMaxDur
	}
	rng := rand.New(rand.NewSource(b.Seed))
	cfg := media.RandomEncoderConfig(rng)
	cfg.EmitPayload = true
	enc := media.NewEncoder(cfg, b.Start)
	// Unbounded window: a VOD playlist lists every segment and ends with
	// EXT-X-ENDLIST.
	seg := hls.NewSegmenter(target, 1<<30)
	now := b.Start
	for {
		f := enc.NextFrame()
		if f.PTS > dur {
			break
		}
		if f.Dropped {
			continue
		}
		seg.WriteVideo(now.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(f.NALs))
	}
	seg.Finish(now.Add(dur))
	return seg
}
