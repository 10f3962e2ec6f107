package service

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"periscope/internal/api"
	"periscope/internal/chat"
	"periscope/internal/websocket"
)

// slowCloseMember is a chat member whose Close parks until released: it
// holds the room's teardown open between "unlisted at the server" and
// "closed", the window in which a fold-on-close aggregate used to show
// the room's counters in neither place.
type slowCloseMember struct {
	once             sync.Once
	closing, release chan struct{}
}

func (m *slowCloseMember) WritePrepared(*websocket.PreparedMessage) error { return nil }

func (m *slowCloseMember) Close() error {
	m.once.Do(func() { close(m.closing) })
	<-m.release
	return nil
}

// chatCounterDips lists the cumulative chat.Stats fields (the int64 ones;
// gauges are ints) that read lower in after than in before.
func chatCounterDips(before, after chat.Stats) []string {
	var dips []string
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		if b.Field(i).Kind() == reflect.Int64 && a.Field(i).Int() < b.Field(i).Int() {
			dips = append(dips, b.Type().Field(i).Name)
		}
	}
	return dips
}

// TestEndBroadcastClosesChatRoom is the chat-room leak regression: ending
// a broadcast must close its room (no linger here), and the chat counters
// must read monotonically before, during and after the close.
func TestEndBroadcastClosesChatRoom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNUnregisterLinger = 0
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	room := svc.Chat.Lookup(b.ID)
	if room == nil {
		t.Fatal("no chat room after AccessVideo")
	}
	slow := &slowCloseMember{closing: make(chan struct{}), release: make(chan struct{})}
	if _, ok := room.Join(slow); !ok {
		t.Fatal("join refused")
	}
	room.Heart(9)
	room.Broadcast(chat.Message{User: "u", Text: "pre-end"})
	before := svc.Snapshot().Chat
	if before.Rooms == 0 || before.RoomsOpened == 0 {
		t.Fatalf("chat snapshot shows no rooms before end: %+v", before)
	}

	ended := make(chan struct{})
	go func() {
		defer close(ended)
		svc.EndBroadcast(b.ID)
	}()
	// The room is unlisted and mid-Close, held there by the slow member.
	<-slow.closing
	during := svc.Snapshot().Chat
	close(slow.release)
	<-ended
	if dips := chatCounterDips(before, during); len(dips) > 0 {
		t.Errorf("chat counters %v dipped while the room was closing:\nbefore %+v\nduring %+v", dips, before, during)
	}

	if svc.Chat.Lookup(b.ID) != nil {
		t.Error("chat room still registered after EndBroadcast with no linger")
	}
	after := svc.Snapshot().Chat
	if after.RoomsClosed != before.RoomsClosed+1 {
		t.Errorf("RoomsClosed = %d, want %d", after.RoomsClosed, before.RoomsClosed+1)
	}
	if after.HeartTaps < 9 {
		t.Errorf("room's heart taps lost with the room: HeartTaps = %d", after.HeartTaps)
	}
	if dips := chatCounterDips(during, after); len(dips) > 0 {
		t.Errorf("chat counters %v dipped across room close:\nduring %+v\nafter  %+v", dips, during, after)
	}
}

// TestEndBroadcastChatRoomHonorsLinger: with a CDN linger configured, the
// room stays open through the drain window (viewers can keep chatting)
// and closes when the linger fires — unless the broadcast relaunched, in
// which case the fresh room survives the stale deferred close.
func TestEndBroadcastChatRoomHonorsLinger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopConfig.TargetConcurrent = 120
	cfg.SegmentTarget = 800 * time.Millisecond
	cfg.CDNUnregisterLinger = 200 * time.Millisecond
	svc, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := api.NewClient(svc.APIBaseURL(), "s1", nil)
	b := pickBroadcast(t, svc, true)
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	oldRoom := svc.Chat.Lookup(b.ID)
	if oldRoom == nil {
		t.Fatal("no chat room after AccessVideo")
	}
	svc.EndBroadcast(b.ID)
	if svc.Chat.Lookup(b.ID) != oldRoom {
		t.Fatal("chat room closed before the linger elapsed")
	}

	// The broadcast is still live in the population: the next access
	// relaunches it, reclaiming the still-open room and cancelling the
	// pending deferred close.
	if _, err := cli.AccessVideo(b.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if got := svc.Chat.Lookup(b.ID); got != oldRoom {
		t.Fatalf("stale linger close tore down the relaunched broadcast's room (got %p, want %p)", got, oldRoom)
	}

	// End it again with no relaunch: after the linger the room must close.
	svc.EndBroadcast(b.ID)
	waitFor(t, func() bool { return svc.Chat.Lookup(b.ID) == nil }, "chat room close after linger")
}
