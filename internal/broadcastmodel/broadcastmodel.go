// Package broadcastmodel maintains the synthetic live-broadcast population
// the crawler measures. Its distributions are calibrated to §4 of the
// paper:
//
//   - most broadcasts last 1-10 minutes, roughly half under 4 minutes,
//     with a long tail reaching beyond a day;
//   - over 90% of broadcasts average fewer than 20 viewers, some attract
//     thousands, and over 10% have no viewers at all;
//   - zero-viewer broadcasts are much shorter (mean ~2 min vs ~13 min) and
//     over 80% of them are not available for replay;
//   - broadcast arrivals and viewer interest follow the broadcaster-local
//     diurnal pattern of Fig. 2(b) (early-morning slump, morning peak,
//     rise towards midnight);
//   - popularity correlates only weakly with duration.
//
// The population evolves in virtual time driven by Advance, so a 10-hour
// crawl simulates in milliseconds.
package broadcastmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"periscope/internal/geo"
	"periscope/internal/randdist"
)

// Broadcast is one live (or ended) broadcast. Once a Population has handed
// it out it is immutable: API handlers read it with no lock, so a new End
// is published as a new Broadcast (see EndAt and Relaunch).
type Broadcast struct {
	ID       string
	Start    time.Time
	End      time.Time // scheduled end
	Location geo.Point
	Region   string
	// LocationDisclosed is false for broadcasts hidden from the map (the
	// deep crawl "misses private broadcasts and those with location
	// undisclosed").
	LocationDisclosed bool
	Private           bool
	// BaseViewers scales the viewer process; 0 marks a zero-viewer cast.
	BaseViewers float64
	// AvailableForReplay mirrors the replay flag in the API description.
	AvailableForReplay bool
	// MapRank orders visibility on the map: lower ranks surface first when
	// an area shows only a fraction of its broadcasts.
	MapRank float64
	// Seed derives per-broadcast media properties deterministically.
	Seed int64

	// startRFC3339 caches the RFC3339Nano rendering of Start. The API
	// serves it in every description, and formatting dominated the
	// getBroadcasts allocation profile before caching.
	startRFC3339 string
}

// StartRFC3339 returns Start formatted as RFC3339Nano (UTC), cached when
// the broadcast was spawned by a Population.
func (b *Broadcast) StartRFC3339() string {
	if b.startRFC3339 == "" {
		return b.Start.UTC().Format(time.RFC3339Nano)
	}
	return b.startRFC3339
}

// Duration returns the scheduled duration.
func (b *Broadcast) Duration() time.Duration { return b.End.Sub(b.Start) }

// ViewersAt returns the instantaneous viewer count at time t: a ramp-up to
// the base level, slow decay over long casts, and deterministic jitter.
func (b *Broadcast) ViewersAt(t time.Time) int {
	if b.BaseViewers <= 0 || t.Before(b.Start) || t.After(b.End) {
		return 0
	}
	age := t.Sub(b.Start).Seconds()
	ramp := 1 - math.Exp(-age/90) // viewers arrive over the first minutes
	decay := math.Exp(-age / (3 * 3600))
	jitter := 0.85 + 0.3*pseudo(b.Seed, int64(age/30))
	v := b.BaseViewers * ramp * decay * jitter
	return int(v + 0.5)
}

// pseudo returns a deterministic pseudo-random value in [0,1) from a seed
// and a step index, so repeated queries agree without storing state.
func pseudo(seed, step int64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(step)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return float64(x>>11) / float64(1<<53)
}

// Config tunes the population.
type Config struct {
	// TargetConcurrent is the steady-state number of live broadcasts. The
	// real service held roughly 40 000; experiments default to a 1:20
	// scale (2 000) for speed. Statistics are scale-free.
	TargetConcurrent int
	// Seed makes the population reproducible.
	Seed int64
	// ZeroViewerFrac is the fraction of broadcasts nobody watches.
	ZeroViewerFrac float64
	// UndisclosedFrac is the fraction hidden from the map.
	UndisclosedFrac float64
	// PrivateFrac is the fraction of private broadcasts.
	PrivateFrac float64
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		TargetConcurrent: 2000,
		Seed:             1,
		ZeroViewerFrac:   0.12,
		UndisclosedFrac:  0.10,
		PrivateFrac:      0.05,
	}
}

// Population is the evolving set of broadcasts.
type Population struct {
	mu      sync.RWMutex
	cfg     Config
	rng     *rand.Rand
	regions []geo.Region
	live    map[string]*Broadcast
	ended   []*Broadcast // retained for analysis
	now     time.Time
	nextID  int64
	// meanDurationSec caches the scheduled-duration mean for arrival-rate
	// balancing (arrival rate = target / mean duration).
	meanDurationSec float64
	// endHook, when set, receives the broadcasts whose scheduled End
	// expired during an Advance call (invoked after the population lock is
	// released). It is how the wire tier learns about scheduled ends: the
	// service wires it to EndBroadcast so the CDN churns broadcasts
	// end-to-end without manual intervention.
	endHook func([]*Broadcast)
}

// New creates a population at virtual time start. The population begins
// pre-filled at the steady-state size.
func New(cfg Config, start time.Time) *Population {
	if cfg.TargetConcurrent <= 0 {
		cfg.TargetConcurrent = DefaultConfig().TargetConcurrent
	}
	p := &Population{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		regions: geo.Regions(),
		live:    map[string]*Broadcast{},
		now:     start,
	}
	// Estimate the mean duration empirically for arrival balancing.
	var sum float64
	probe := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	for i := 0; i < 4000; i++ {
		zero := probe.Float64() < cfg.ZeroViewerFrac
		sum += p.sampleDuration(probe, zero).Seconds()
	}
	p.meanDurationSec = sum / 4000
	// Pre-fill: spawn broadcasts with starts in the past so the initial
	// population is mid-lifetime, as a crawler would find it.
	for i := 0; i < cfg.TargetConcurrent; i++ {
		b := p.spawn(start)
		dur := b.Duration()
		elapsed := time.Duration(p.rng.Float64() * float64(dur))
		b.Start = start.Add(-elapsed)
		b.End = b.Start.Add(dur)
		p.live[b.ID] = b
	}
	return p
}

// sampleDuration draws a scheduled duration. Zero-viewer broadcasts are
// much shorter.
func (p *Population) sampleDuration(rng *rand.Rand, zeroViewers bool) time.Duration {
	var minutes float64
	if zeroViewers {
		// mean ~2 min.
		minutes = randdist.LogNormalFromMedianP90(rng, 1.4, 4.5)
	} else {
		// median ~4 min, p90 ~20 min, occasional very long casts.
		minutes = randdist.LogNormalFromMedianP90(rng, 4, 20)
		if rng.Float64() < 0.004 {
			minutes = randdist.BoundedPareto(rng, 1.1, 600, 2000) // 10h .. 33h
		}
	}
	if minutes < 0.15 {
		minutes = 0.15
	}
	return time.Duration(minutes * float64(time.Minute))
}

// sampleViewers draws the base (peak) viewer level.
func (p *Population) sampleViewers(rng *rand.Rand) float64 {
	if rng.Float64() < p.cfg.ZeroViewerFrac {
		return 0
	}
	// Log-normal bulk: median ~4, p90 ~18 (so >90% under 20 including the
	// zero class), plus a thin Pareto tail into the thousands.
	v := randdist.LogNormalFromMedianP90(rng, 4, 18)
	if rng.Float64() < 0.015 {
		v = randdist.BoundedPareto(rng, 0.9, 100, 8000)
	}
	return v
}

// spawn creates one broadcast starting at t.
func (p *Population) spawn(t time.Time) *Broadcast {
	p.nextID++
	// 13-character broadcast IDs, like the real API's.
	id := fmt.Sprintf("%013x", (p.nextID*2654435761)%(int64(1)<<52))
	ri := randdist.WeightedChoice(p.rng, regionWeights(p.regions))
	reg := p.regions[ri]
	loc := geo.Point{
		Lat: reg.Bounds.South + p.rng.Float64()*(reg.Bounds.North-reg.Bounds.South),
		Lon: reg.Bounds.West + p.rng.Float64()*(reg.Bounds.East-reg.Bounds.West),
	}
	base := p.sampleViewers(p.rng)
	// Viewer interest follows the broadcaster-local time of day.
	localHour := geo.LocalHour(float64(t.UTC().Hour())+float64(t.UTC().Minute())/60, loc.Lon)
	base *= randdist.DiurnalRate(localHour)
	zero := base < 0.5
	if zero {
		base = 0
	}
	dur := p.sampleDuration(p.rng, zero)
	b := &Broadcast{
		ID:                id,
		Start:             t,
		End:               t.Add(dur),
		Location:          loc,
		Region:            reg.Name,
		LocationDisclosed: p.rng.Float64() >= p.cfg.UndisclosedFrac,
		Private:           p.rng.Float64() < p.cfg.PrivateFrac,
		BaseViewers:       base,
		MapRank:           p.rng.Float64(),
		Seed:              p.rng.Int63(),
		startRFC3339:      t.UTC().Format(time.RFC3339Nano),
	}
	// Replay availability: >80% of zero-viewer casts are unavailable;
	// watched casts are kept more often.
	if zero {
		b.AvailableForReplay = p.rng.Float64() < 0.15
	} else {
		b.AvailableForReplay = p.rng.Float64() < 0.6
	}
	return b
}

func regionWeights(regions []geo.Region) []float64 {
	w := make([]float64, len(regions))
	for i, r := range regions {
		w[i] = r.Weight
	}
	return w
}

// Now returns the population's current virtual time.
func (p *Population) Now() time.Time {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.now
}

// OnBroadcastEnd installs a listener invoked after each Advance call with
// the broadcasts whose scheduled End expired during it. The listener runs
// on the Advance caller's goroutine, outside the population lock, so it
// may call back into the population.
func (p *Population) OnBroadcastEnd(fn func([]*Broadcast)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endHook = fn
}

// Advance moves virtual time forward, ending expired broadcasts and
// spawning arrivals at a diurnally modulated rate. Scheduled ends are
// reported to the OnBroadcastEnd listener.
func (p *Population) Advance(dt time.Duration) {
	p.mu.Lock()
	var endedNow []*Broadcast
	const step = 10 * time.Second
	remaining := dt
	for remaining > 0 {
		d := step
		if remaining < step {
			d = remaining
		}
		p.now = p.now.Add(d)
		remaining -= d
		// End expired casts.
		for id, b := range p.live {
			if !b.End.After(p.now) {
				delete(p.live, id)
				p.ended = append(p.ended, b)
				endedNow = append(endedNow, b)
			}
		}
		// Arrivals: rate balances departures at steady state, with a mild
		// global diurnal modulation (UTC-based; regional modulation comes
		// from viewer interest).
		ratePerSec := float64(p.cfg.TargetConcurrent) / p.meanDurationSec
		hour := float64(p.now.UTC().Hour()) + float64(p.now.UTC().Minute())/60
		ratePerSec *= 0.8 + 0.4*randdist.DiurnalRate(hour)/1.2
		n := randdist.Poisson(p.rng, ratePerSec*d.Seconds())
		for i := 0; i < n; i++ {
			b := p.spawn(p.now)
			p.live[b.ID] = b
		}
	}
	// Cap the ended archive to bound memory over very long simulations.
	if len(p.ended) > 500_000 {
		p.ended = p.ended[len(p.ended)-500_000:]
	}
	hook := p.endHook
	p.mu.Unlock()
	if hook != nil && len(endedNow) > 0 {
		hook(endedNow)
	}
}

// EndAt reschedules a live broadcast's end, the knob churn tests and
// scenario drivers use to make a scheduled end land at a chosen virtual
// time. It reports whether the broadcast was live. The rescheduled
// broadcast replaces the live one; a reader still holding the old one keeps
// a consistent copy.
func (p *Population) EndAt(id string, t time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.live[id]
	if !ok {
		return false
	}
	nb := *b
	nb.End = t
	p.live[id] = &nb
	return true
}

// Relaunch returns an ended broadcast to the live set with a fresh
// scheduled end dur from now — a broadcaster restarting the same stream,
// the case a CDN's end-of-broadcast linger must tolerate without tearing
// down the relaunched mounts.
func (p *Population) Relaunch(id string, dur time.Duration) (*Broadcast, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.ended {
		if b.ID == id {
			p.ended = append(p.ended[:i], p.ended[i+1:]...)
			nb := *b
			nb.End = p.now.Add(dur)
			p.live[id] = &nb
			return &nb, true
		}
	}
	return nil, false
}

// LiveCount returns the number of currently live broadcasts.
func (p *Population) LiveCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.live)
}

// Get returns a broadcast by ID (live broadcasts only).
func (p *Population) Get(id string) (*Broadcast, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	b, ok := p.live[id]
	return b, ok
}

// InArea returns live, public, disclosed broadcasts inside the rectangle,
// ordered by MapRank (the order the map surfaces them in).
func (p *Population) InArea(r geo.Rect) []*Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*Broadcast
	for _, b := range p.live {
		if b.Private || !b.LocationDisclosed {
			continue
		}
		if r.Contains(b.Location) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MapRank < out[j].MapRank })
	return out
}

// Random returns a uniformly random live public broadcast, or nil if none
// exist.
func (p *Population) Random(rng *rand.Rand) *Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ids := make([]string, 0, len(p.live))
	for id, b := range p.live {
		if !b.Private {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids) // deterministic iteration for a seeded rng
	return p.live[ids[rng.Intn(len(ids))]]
}

// Teleport returns a viewer-weighted random live public broadcast — the
// Teleport button's behaviour. The weighting is what reconciles the
// paper's session mix (1586 of 3382 unlimited sessions used HLS, i.e.
// landed on >100-viewer broadcasts) with the fact that over 90% of
// broadcasts have fewer than 20 viewers: teleport follows the audience,
// not the uniform broadcast distribution.
func (p *Population) Teleport(rng *rand.Rand) *Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ids := make([]string, 0, len(p.live))
	for id, b := range p.live {
		if !b.Private {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	now := p.now
	total := 0.0
	weights := make([]float64, len(ids))
	for i, id := range ids {
		w := float64(p.live[id].ViewersAt(now)) + 0.2
		weights[i] = w
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return p.live[ids[i]]
		}
	}
	return p.live[ids[len(ids)-1]]
}

// Live returns a snapshot of all live broadcasts.
func (p *Population) Live() []*Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Broadcast, 0, len(p.live))
	for _, b := range p.live {
		out = append(out, b)
	}
	return out
}

// Ended returns broadcasts that finished during the simulation.
func (p *Population) Ended() []*Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Broadcast(nil), p.ended...)
}

// GetAny looks a broadcast up among both live and ended broadcasts. The
// second result reports whether it is still live.
func (p *Population) GetAny(id string) (b *Broadcast, live bool, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if b, ok := p.live[id]; ok {
		return b, true, true
	}
	for _, e := range p.ended {
		if e.ID == id {
			return e, false, true
		}
	}
	return nil, false, false
}

// ReplayableInArea returns ended, replay-available, public broadcasts in
// the rectangle — what mapGeoBroadcastFeed returns additionally when the
// app leaves include_replay set.
func (p *Population) ReplayableInArea(r geo.Rect) []*Broadcast {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*Broadcast
	for _, b := range p.ended {
		if b.Private || !b.LocationDisclosed || !b.AvailableForReplay {
			continue
		}
		if r.Contains(b.Location) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MapRank < out[j].MapRank })
	return out
}
