package chat

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"periscope/internal/websocket"
)

func startChat(t *testing.T, roomID string, cfg RoomConfig) (*Server, *httptest.Server, *Room) {
	t.Helper()
	s := NewServer()
	room := s.Room(roomID, cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		room.Close()
	})
	return s, hs, room
}

func wsBase(hs *httptest.Server) string {
	return "ws" + strings.TrimPrefix(hs.URL, "http")
}

func TestMessagesArriveEvenWithChatOff(t *testing.T) {
	_, hs, _ := startChat(t, "b1", RoomConfig{
		Chatters: 20, MsgPerChatterSec: 5, AvatarFrac: 0.7, Seed: 1,
	})
	c, err := Join(ClientConfig{
		ChatURL:       wsBase(hs) + "/chat/b1",
		AvatarBaseURL: hs.URL,
		DisplayChat:   false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.After(5 * time.Second)
	for {
		st := c.Stats()
		if st.MessagesReceived >= 5 {
			if st.AvatarDownloads != 0 {
				t.Errorf("chat off but %d avatar downloads", st.AvatarDownloads)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("only %d messages in 5s", st.MessagesReceived)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestChatOnDownloadsAvatarsWithoutCaching(t *testing.T) {
	_, hs, _ := startChat(t, "b2", RoomConfig{
		Chatters: 3, MsgPerChatterSec: 20, AvatarFrac: 1.0, Seed: 2,
	})
	c, err := Join(ClientConfig{
		ChatURL:       wsBase(hs) + "/chat/b2",
		AvatarBaseURL: hs.URL,
		DisplayChat:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.After(8 * time.Second)
	for {
		st := c.Stats()
		// With only 3 chatters and many messages, duplicates are certain.
		if st.AvatarDownloads >= 10 {
			if st.DuplicateAvatarDownloads == 0 {
				t.Error("no duplicate downloads despite no cache")
			}
			if st.AvatarBytes < int64(st.AvatarDownloads)*10_000 {
				t.Errorf("avatar bytes %d too small for %d downloads", st.AvatarBytes, st.AvatarDownloads)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("only %d avatar downloads in 8s", st.AvatarDownloads)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestChatTrafficMuchHigherWhenOn(t *testing.T) {
	// The §5.1 experiment: aggregate rate with chat on dwarfs chat off.
	cfg := RoomConfig{Chatters: 30, MsgPerChatterSec: 2, AvatarFrac: 0.7, Seed: 3}
	_, hsOff, _ := startChat(t, "b3", cfg)
	off, err := Join(ClientConfig{ChatURL: wsBase(hsOff) + "/chat/b3", AvatarBaseURL: hsOff.URL, DisplayChat: false})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	_, hsOn, _ := startChat(t, "b4", cfg)
	on, err := Join(ClientConfig{ChatURL: wsBase(hsOn) + "/chat/b4", AvatarBaseURL: hsOn.URL, DisplayChat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()

	time.Sleep(3 * time.Second)
	offBytes := off.Stats().WSBytes + off.Stats().AvatarBytes
	onBytes := on.Stats().WSBytes + on.Stats().AvatarBytes
	if onBytes < 5*offBytes {
		t.Errorf("chat-on traffic %d not >> chat-off %d", onBytes, offBytes)
	}
}

func TestChatFullBlocksLateSenders(t *testing.T) {
	_, hs, room := startChat(t, "b5", RoomConfig{JoinCap: 1, Seed: 4})
	// First member can send.
	c1, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/b5", AvatarBaseURL: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Second member joins a full chat: its messages are dropped.
	c2, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/b5", AvatarBaseURL: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitMembers(t, room, 2)
	if err := c2.Send("should be dropped"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if got := c1.Stats().MessagesReceived; got != 0 {
		t.Errorf("full-chat message leaked: receiver got %d", got)
	}
	if err := c1.Send("allowed"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for c2.Stats().MessagesReceived < 1 {
		select {
		case <-deadline:
			t.Fatal("allowed sender's message never arrived")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestFailedHandshakeSpendsNoSendRight: a request to a chat URL that is
// not a WebSocket handshake is admitted before the handshake and withdrawn
// when it fails, so it takes no member's send right.
func TestFailedHandshakeSpendsNoSendRight(t *testing.T) {
	_, hs, room := startChat(t, "b6", RoomConfig{JoinCap: 1, Seed: 4})
	resp, err := hs.Client().Get(hs.URL + "/chat/b6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := room.Joined(); n != 0 {
		t.Errorf("a failed handshake counts as %d joins", n)
	}
}

// TestChatMessageCarriesOnlyWhatAMemberSets: a member's chat message is
// broadcast with its user, text and clock only. An avatar URL a member
// could set would make every displaying client in the room fetch a path
// of that member's choosing on the avatar host; a count or a room gauge is
// the server's to send.
func TestChatMessageCarriesOnlyWhatAMemberSets(t *testing.T) {
	_, hs, room := startChat(t, "b7", RoomConfig{HeartInterval: -1, PresenceInterval: -1})
	url := wsBase(hs) + "/chat/b7"
	sender, err := websocket.Dial(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiver, err := websocket.Dial(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	waitMembers(t, room, 2)
	sent := `{"user":"mallory","text":"look","avatar_url":"/avatars/../admin/reset","count":7,"members":9,"joined":3,"sent_unix_nano":5}`
	if err := sender.WriteMessage(websocket.OpText, []byte(sent)); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		_, data, err := receiver.ReadMessage()
		if err != nil {
			data = []byte(err.Error())
		}
		got <- string(data)
	}()
	select {
	case data := <-got:
		if want := `{"user":"mallory","text":"look","sent_unix_nano":5}`; data != want {
			t.Errorf("member sent %s; the room broadcast %s, want %s", sent, data, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the chat message never arrived")
	}
}

func waitMembers(t *testing.T, room *Room, n int) {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for room.Members() < n {
		select {
		case <-deadline:
			t.Fatalf("room never reached %d members", n)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestAvatarDeterministicSize(t *testing.T) {
	s := NewServer()
	hs := httptest.NewServer(s)
	defer hs.Close()
	get := func() int64 {
		resp, err := hs.Client().Get(hs.URL + "/avatars/user0001.jpg")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n := int64(0)
		buf := make([]byte, 32<<10)
		for {
			m, err := resp.Body.Read(buf)
			n += int64(m)
			if err != nil {
				break
			}
		}
		return n
	}
	a, b := get(), get()
	if a != b {
		t.Errorf("avatar size not deterministic: %d vs %d", a, b)
	}
	if a < 15*1024 || a > 80*1024 {
		t.Errorf("avatar size %d outside [15KB, 80KB]", a)
	}
}

func TestRoomConfigForViewers(t *testing.T) {
	small := RoomConfigForViewers(8, 1)
	if small.Chatters != 2 {
		t.Errorf("8 viewers -> %d chatters, want 2", small.Chatters)
	}
	big := RoomConfigForViewers(10_000, 1)
	if big.Chatters != DefaultJoinCap {
		t.Errorf("huge audience -> %d chatters, want cap %d", big.Chatters, DefaultJoinCap)
	}
}

func TestUnknownRoom404(t *testing.T) {
	s := NewServer()
	hs := httptest.NewServer(s)
	defer hs.Close()
	if _, err := Join(ClientConfig{ChatURL: wsBase(hs) + "/chat/nope", AvatarBaseURL: hs.URL}); err == nil {
		t.Error("joining unknown room must fail")
	}
}
