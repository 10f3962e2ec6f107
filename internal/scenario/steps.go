package scenario

import (
	"fmt"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/chat"
	"periscope/internal/netem"
)

// PickBroadcast binds a live broadcast of the given popularity class to a
// named slot. A popular pick past the arrival ramp is promoted the way
// the service tests do (base level raised, start backdated) — promotion
// happens here, strictly before any viewer goroutines touch the
// broadcast, so the mutation cannot race ViewersAt.
func PickBroadcast(at time.Duration, slot string, popular bool) Step {
	return PickBroadcastWhere(at, slot, popular, nil)
}

// PickBroadcastWhere is PickBroadcast with an extra predicate over the
// candidates (e.g. "its preferred POP must not be a cluster anchor").
// Already-bound broadcasts are never re-picked.
func PickBroadcastWhere(at time.Duration, slot string, popular bool, where func(*Run, *broadcastmodel.Broadcast) bool) Step {
	return Step{At: at, Name: "pick " + slot, Do: func(r *Run) error {
		bound := map[string]bool{}
		r.mu.Lock()
		for _, b := range r.slots {
			bound[b.ID] = true
		}
		r.mu.Unlock()
		now := r.Svc.Pop.Now()
		th := r.Cfg.HLSViewerThreshold
		ok := func(b *broadcastmodel.Broadcast) bool {
			return !b.Private && !bound[b.ID] && (where == nil || where(r, b))
		}
		if !popular {
			for _, b := range r.Svc.Pop.Live() {
				// Jitter peaks at 1.15x the base level; stay clear of it.
				if ok(b) && b.BaseViewers*1.2 < float64(th) {
					r.bind(slot, b)
					return nil
				}
			}
			return fmt.Errorf("pick %s: no unpopular broadcast available", slot)
		}
		for _, b := range r.Svc.Pop.Live() {
			if ok(b) && b.ViewersAt(now) >= 2*th {
				r.bind(slot, b)
				return nil
			}
		}
		// Popular casts are rare at small scale: promote one, backdating
		// the start past the viewer-arrival ramp.
		for _, b := range r.Svc.Pop.Live() {
			if !ok(b) {
				continue
			}
			b, live := r.Svc.Pop.Promote(b.ID, 500, 10*time.Minute)
			if !live {
				continue
			}
			if v := b.ViewersAt(now); v < th {
				return fmt.Errorf("pick %s: promoted broadcast still has %d < %d viewers", slot, v, th)
			}
			r.bind(slot, b)
			return nil
		}
		return fmt.Errorf("pick %s: no candidate broadcast", slot)
	}}
}

// Access resolves the slot's broadcast through the real AccessVideo
// policy, starting its pipeline (and, for popular casts, HLS + CDN
// registration). The response is kept for later steps (chat URL, HLS
// base).
func Access(at time.Duration, slot string) Step {
	return Step{At: at, Name: "access " + slot, Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		resp, err := r.Svc.AccessVideo(b.ID)
		if err != nil {
			return fmt.Errorf("access %s: %w", slot, err)
		}
		r.mu.Lock()
		r.access[slot] = resp
		r.mu.Unlock()
		return nil
	}}
}

// WaitSegments polls until the slot's segmenter has produced at least n
// segments, erroring after the within budget — the "first segment is out,
// the CDN has something to serve" barrier.
func WaitSegments(at time.Duration, slot string, n int, within time.Duration) Step {
	return WaitUntil(at, fmt.Sprintf("%s has %d segments", slot, n), within, func(r *Run) bool {
		b, err := r.Broadcast(slot)
		return err == nil && r.Svc.BroadcastSegments(b.ID) >= n
	})
}

// WaitUntil polls cond every 20 ms until it holds, erroring after the
// within budget. All scenario waits go through here — polling with a
// deadline, never a bare sleep-and-hope.
func WaitUntil(at time.Duration, what string, within time.Duration, cond func(*Run) bool) Step {
	return Step{At: at, Name: "wait: " + what, Do: func(r *Run) error {
		deadline := time.Now().Add(within)
		for time.Now().Before(deadline) {
			if cond(r) {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("timeout after %v waiting for %s", within, what)
	}}
}

// SpawnViewers starts n concurrent HLS viewer sessions on the slot's
// broadcast under the given cohort label, each lasting dur. A non-nil
// access profile shapes every viewer's HTTP path through its own
// netem.Link (per-request RTT, bandwidth pacing, seeded loss), seeded
// per viewer so drop sequences replay.
func SpawnViewers(at time.Duration, cohort, slot string, n int, profile *netem.AccessProfile, dur time.Duration) Step {
	return Step{At: at, Name: fmt.Sprintf("spawn %d %s viewers on %s", n, cohort, slot), Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		r.mu.Lock()
		if _, seen := r.cohorts[cohort]; !seen {
			r.order = append(r.order, cohort)
		}
		for i := 0; i < n; i++ {
			vs := &viewerSession{dur: dur}
			r.cohorts[cohort] = append(r.cohorts[cohort], vs)
			r.wg.Add(1)
			seed := int64(len(r.cohorts[cohort]))
			go func(vs *viewerSession, seed int64) {
				defer r.wg.Done()
				vs.run(r.Svc, b.ID, profile, seed)
			}(vs, seed)
		}
		r.mu.Unlock()
		return nil
	}}
}

// RampChat joins members real WebSocket chat clients to the slot's room
// (the room the slot's Access step created) and has each send msgs
// messages plus a burst of hearts — flash crowds exercise chat and media
// together. Clients stay attached until the timeline drains.
func RampChat(at time.Duration, slot string, members, msgs int) Step {
	return Step{At: at, Name: fmt.Sprintf("ramp chat on %s: %d members", slot, members), Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		r.mu.Lock()
		resp, ok := r.access[slot]
		r.mu.Unlock()
		if !ok || resp.ChatURL == "" {
			return fmt.Errorf("ramp chat %s: no Access step resolved a chat URL", slot)
		}
		heartsURL := r.Svc.ChatBaseURL() + "/hearts/" + b.ID
		for i := 0; i < members; i++ {
			cli, err := chat.Join(chat.ClientConfig{
				ChatURL:   resp.ChatURL,
				HeartsURL: heartsURL,
			})
			if err != nil {
				return fmt.Errorf("ramp chat %s: member %d join: %w", slot, i, err)
			}
			r.mu.Lock()
			r.chatters = append(r.chatters, cli)
			r.mu.Unlock()
			r.wg.Add(1)
			go func(cli *chat.Client, member int) {
				defer r.wg.Done()
				for m := 0; m < msgs; m++ {
					if err := cli.Send(fmt.Sprintf("msg %d from member %d", m, member)); err != nil {
						return
					}
					time.Sleep(60 * time.Millisecond)
				}
				cli.Heart(3)
			}(cli, i)
		}
		return nil
	}}
}

// ScheduleEnd schedules the slot's broadcast to end after the given
// virtual delay, then advances the population far enough for the end to
// fire — the real end path: Population.OnBroadcastEnd drives
// Service.EndBroadcast (ENDLIST, linger, unregister, chat-room close).
func ScheduleEnd(at time.Duration, slot string, delay time.Duration) Step {
	return Step{At: at, Name: "end " + slot, Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		if !r.Svc.Pop.EndAt(b.ID, r.Svc.Pop.Now().Add(delay)) {
			return fmt.Errorf("end %s: broadcast %s not live", slot, b.ID)
		}
		r.Svc.Pop.Advance(delay + time.Second)
		return nil
	}}
}

// PinEnd pushes the slot's scheduled end far into the virtual future, so
// Advance calls made to fire *other* broadcasts' ends cannot take this
// one down as a side effect.
func PinEnd(at time.Duration, slot string, keepFor time.Duration) Step {
	return Step{At: at, Name: "pin " + slot, Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		if !r.Svc.Pop.EndAt(b.ID, r.Svc.Pop.Now().Add(keepFor)) {
			return fmt.Errorf("pin %s: broadcast %s not live", slot, b.ID)
		}
		return nil
	}}
}

// Relaunch brings the slot's ended broadcast back live for dur (the
// mid-linger relaunch path: the chat room is reclaimed, a fresh pipeline
// starts on next access).
func Relaunch(at time.Duration, slot string, dur time.Duration) Step {
	return Step{At: at, Name: "relaunch " + slot, Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		nb, ok := r.Svc.Pop.Relaunch(b.ID, dur)
		if !ok {
			return fmt.Errorf("relaunch %s: broadcast %s not relaunchable", slot, b.ID)
		}
		r.bind(slot, nb)
		return nil
	}}
}

// RegionOutage blackholes every POP in the slot's hash-preferred region
// (the region actually serving its viewers) and verifies the steering
// plane reports those POPs down. The downed region is remembered for
// RestoreOutage / WaitRewarmed.
func RegionOutage(at time.Duration, slot string, wantDown int) Step {
	return Step{At: at, Name: "region outage for " + slot, Do: func(r *Run) error {
		b, err := r.Broadcast(slot)
		if err != nil {
			return err
		}
		region := r.Svc.PreferredPOPRegion(b.ID)
		if downed := r.Svc.RegionOutage(region); downed != wantDown {
			return fmt.Errorf("region outage %s: downed %d POPs in %s, want %d", slot, downed, region, wantDown)
		}
		snap := r.Svc.Snapshot()
		for i, st := range r.Svc.POPHealthStates() {
			if snap.POPs[i].Region == region && st != "down" {
				return fmt.Errorf("region outage %s: POP %d in %s reports %q, want down", slot, i, region, st)
			}
		}
		r.mu.Lock()
		r.regions[slot] = region
		r.mu.Unlock()
		return nil
	}}
}

// RestoreOutage lifts the regional outage a RegionOutage step opened for
// this slot, re-warming the recovered POPs.
func RestoreOutage(at time.Duration, slot string, wantUp int) Step {
	return Step{At: at, Name: "restore region for " + slot, Do: func(r *Run) error {
		r.mu.Lock()
		region, ok := r.regions[slot]
		r.mu.Unlock()
		if !ok {
			return fmt.Errorf("restore %s: no prior RegionOutage step", slot)
		}
		if restored := r.Svc.RestoreRegion(region); restored != wantUp {
			return fmt.Errorf("restore %s: restored %d POPs in %s, want %d", slot, restored, region, wantUp)
		}
		return nil
	}}
}

// WaitHealthy polls until every POP steers as "ok".
func WaitHealthy(at, within time.Duration) Step {
	return WaitUntil(at, "all POPs healthy", within, func(r *Run) bool {
		for _, st := range r.Svc.POPHealthStates() {
			if st != "ok" {
				return false
			}
		}
		return true
	})
}

// WaitRewarmed polls until every POP in the slot's downed-then-restored
// region holds cached segments again — recovery must return edges warm,
// not cold.
func WaitRewarmed(at time.Duration, slot string, within time.Duration) Step {
	return WaitUntil(at, slot+" region re-warmed", within, func(r *Run) bool {
		r.mu.Lock()
		region, ok := r.regions[slot]
		r.mu.Unlock()
		if !ok {
			return false
		}
		warm := false
		for _, p := range r.Svc.Snapshot().POPs {
			if p.Region != region {
				continue
			}
			if p.CachedSegments < 1 {
				return false
			}
			warm = true
		}
		return warm
	})
}

// InjectOriginFault installs a fault profile on every POP's origin fill
// link — the partial-degradation lever (and the one the broken-SLO
// fixture pulls to force a breach).
func InjectOriginFault(at time.Duration, profile netem.FaultProfile) Step {
	return Step{At: at, Name: "inject origin fault", Do: func(r *Run) error {
		for i := range r.Svc.Snapshot().POPs {
			r.Svc.SetPOPOriginFault(i, profile)
		}
		return nil
	}}
}
