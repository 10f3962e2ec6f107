// Package session automates broadcast viewing the way §2 describes: push
// the Teleport button, watch for exactly 60 seconds, record the playback
// statistics, repeat. Two tiers exist: the fast tier drives the transport
// simulators (internal/player) against the broadcast population and
// regenerates the full 4 615-session dataset in milliseconds; the wire
// tier (wire.go) watches a real broadcast over real RTMP/HLS connections.
package session

import (
	"math/rand"
	"time"

	"periscope/internal/api"
	"periscope/internal/broadcastmodel"
	"periscope/internal/media"
	"periscope/internal/player"
)

// Device identifies the measurement phone. The paper's Welch t-tests found
// that only the frame rate differs significantly between the Galaxy S3 and
// S4 datasets; FPSScale models the S3's slightly lower decode rate.
type Device struct {
	Name     string
	FPSScale float64
}

// The two study devices.
var (
	GalaxyS3 = Device{Name: "galaxy-s3", FPSScale: 0.90}
	GalaxyS4 = Device{Name: "galaxy-s4", FPSScale: 1.0}
)

// Record is one completed viewing session.
type Record struct {
	BroadcastID   string
	Device        string
	Protocol      string
	BandwidthMbps float64 // 0 = unlimited (plotted as "100" in the paper)
	Viewers       int
	MeasuredFPS   float64
	Metrics       player.Metrics
	// Meta is the playbackMeta upload the app would issue: note HLS
	// reports only the stall count.
	Meta api.PlaybackMeta
}

// CampaignConfig drives a fast-tier campaign.
type CampaignConfig struct {
	// UnlimitedSessions is the no-limit session count (paper: 3 382 — of
	// which 1 796 were RTMP and 1 586 HLS).
	UnlimitedSessions int
	// LimitsMbps are the tc bandwidth limits; SessionsPerLimit sessions
	// are run at each (paper: 18-91).
	LimitsMbps       []float64
	SessionsPerLimit int
	// HLSViewerThreshold is the protocol-selection boundary (~100).
	HLSViewerThreshold int
	// SessionDur is the fixed watch time.
	SessionDur time.Duration
	// PopTarget is the concurrent population size.
	PopTarget int
	Seed      int64
}

// DefaultCampaignConfig mirrors the paper's dataset shape.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		UnlimitedSessions:  3382,
		LimitsMbps:         []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		SessionsPerLimit:   60,
		HLSViewerThreshold: 100,
		SessionDur:         60 * time.Second,
		PopTarget:          2000,
		Seed:               1,
	}
}

// Campaign runs the automated-viewing study in the fast tier.
type Campaign struct {
	cfg CampaignConfig
	pop *broadcastmodel.Population
	rng *rand.Rand
}

// NewCampaign builds the population and RNG.
func NewCampaign(cfg CampaignConfig) *Campaign {
	pc := broadcastmodel.DefaultConfig()
	pc.TargetConcurrent = cfg.PopTarget
	pc.Seed = cfg.Seed
	pop := broadcastmodel.New(pc, time.Date(2016, 4, 11, 8, 0, 0, 0, time.UTC))
	return &Campaign{cfg: cfg, pop: pop, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x7e1e))}
}

// watchOne teleports to a broadcast and simulates one session at the given
// bandwidth limit (0 = unlimited).
func (c *Campaign) watchOne(limitMbps float64, device Device) (Record, bool) {
	b := c.pop.Teleport(c.rng)
	if b == nil {
		return Record{}, false
	}
	now := c.pop.Now()
	viewers := b.ViewersAt(now)

	encRng := rand.New(rand.NewSource(b.Seed))
	enc := media.RandomEncoderConfig(encRng)
	enc.EmitPayload = false

	joinPos := now.Sub(b.Start)
	if joinPos < 0 {
		joinPos = 0
	}
	cfg := player.SimConfig{
		BandwidthBps:       limitMbps * 1e6,
		RTT:                30*time.Millisecond + time.Duration(c.rng.Intn(40))*time.Millisecond,
		SessionDur:         c.cfg.SessionDur,
		Encoder:            enc,
		JoinPos:            joinPos,
		Viewers:            viewers,
		ChatVisible:        true,
		SegmentTarget:      3600 * time.Millisecond,
		PackagingDelay:     400 * time.Millisecond,
		PlaylistTTL:        2 * time.Second,
		LiveEdgeOffset:     2,
		BroadcasterGapProb: 0.22,
		// Imperfect NTP sync: small residual error, sometimes negative.
		SyncErr: time.Duration(c.rng.NormFloat64() * float64(40*time.Millisecond)),
		Seed:    c.rng.Int63(),
	}

	var m player.Metrics
	if viewers >= c.cfg.HLSViewerThreshold {
		m = player.SimulateHLS(cfg)
	} else {
		m = player.SimulateRTMP(cfg)
	}

	rec := Record{
		BroadcastID:   b.ID,
		Device:        device.Name,
		Protocol:      m.Protocol,
		BandwidthMbps: limitMbps,
		Viewers:       viewers,
		MeasuredFPS:   enc.FrameRate*device.FPSScale + c.rng.NormFloat64()*0.5,
		Metrics:       m,
		Meta:          metaFor(b.ID, m),
	}

	// The next Teleport happens after the 60 s watch plus app overhead.
	c.pop.Advance(c.cfg.SessionDur + 15*time.Second)
	return rec, true
}

// metaFor builds the playbackMeta upload: HLS sessions report only the
// number of stall events (§2).
func metaFor(id string, m player.Metrics) api.PlaybackMeta {
	meta := api.PlaybackMeta{
		BroadcastID:  id,
		Protocol:     m.Protocol,
		NStallEvents: m.StallCount,
		PlayTimeSec:  m.PlayTime.Seconds(),
	}
	if m.Protocol == "RTMP" {
		meta.AvgStallSec = m.AvgStall.Seconds()
		meta.StallTimeSec = m.StallTime.Seconds()
		meta.PlaybackDelaySec = m.PlaybackLatency.Seconds()
	}
	return meta
}

// Run executes the whole campaign and returns every session record.
func (c *Campaign) Run() []Record {
	var out []Record
	devices := []Device{GalaxyS3, GalaxyS4}
	for i := 0; i < c.cfg.UnlimitedSessions; i++ {
		if rec, ok := c.watchOne(0, devices[i%2]); ok {
			out = append(out, rec)
		}
	}
	for _, limit := range c.cfg.LimitsMbps {
		for i := 0; i < c.cfg.SessionsPerLimit; i++ {
			if rec, ok := c.watchOne(limit, devices[i%2]); ok {
				out = append(out, rec)
			}
		}
	}
	return out
}

// Filter returns the records matching protocol ("" = all) and bandwidth
// (-1 = all, 0 = unlimited).
func Filter(recs []Record, protocol string, limitMbps float64) []Record {
	var out []Record
	for _, r := range recs {
		if protocol != "" && r.Protocol != protocol {
			continue
		}
		if limitMbps >= 0 && r.BandwidthMbps != limitMbps {
			continue
		}
		out = append(out, r)
	}
	return out
}
