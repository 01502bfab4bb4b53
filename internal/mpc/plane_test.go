package mpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"net"
	"strings"
	"testing"
	"time"
)

func openFragServer(t *testing.T) *FragServer {
	t.Helper()
	s, err := NewFragServer()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve()
	}()
	t.Cleanup(func() {
		s.Close() // a second close after an explicit Close is harmless
		<-served
	})
	return s
}

func fixedAddr(addr string) func() (string, error) {
	return func() (string, error) { return addr, nil }
}

// sendPull opens a connection and sends a raw pull request, leaving the
// response unread.
func sendPull(t *testing.T, addr string, k fragKey) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var req [pullRequestLen]byte
	binary.LittleEndian.PutUint64(req[0:], k.seq)
	binary.LittleEndian.PutUint32(req[8:], k.shard)
	binary.LittleEndian.PutUint32(req[12:], k.dst)
	if _, err := conn.Write(req[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// wireBytes is everything the server puts on the wire for one pull.
func wireBytes(t *testing.T, addr string, k fragKey) []byte {
	t.Helper()
	conn := sendPull(t, addr, k)
	if err := conn.SetDeadline(time.Now().Add(IOTimeout)); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(conn) // an RST stump ends the read with an error by design
	return got
}

// TestArmedHavocIsOnTheWire asserts, byte for byte, what an armed frame's
// successive pulls carry: the two stump shapes, the bit-flipped image,
// the good frame followed by its duplicate, then the good frame alone.
func TestArmedHavocIsOnTheWire(t *testing.T) {
	s := openFragServer(t)
	f := testFrame()
	img := encodeFrame(f)
	s.arm(keyOf(f), 2, 1, 1)
	s.Publish([]Frame{f})

	if got := wireBytes(t, s.Addr(), keyOf(f)); !bytes.Equal(got, img[:frameHeaderLen/2]) {
		t.Errorf("drop 0 carried %d bytes, want the first half of the header (%d)", len(got), frameHeaderLen/2)
	}
	cut := frameHeaderLen + len(f.Payload)/2
	if got := wireBytes(t, s.Addr(), keyOf(f)); len(got) > cut || !bytes.HasPrefix(img, got) {
		t.Errorf("drop 1 carried %d bytes, want a prefix of the frame no longer than header + half payload (%d)", len(got), cut)
	}
	got := wireBytes(t, s.Addr(), keyOf(f))
	if len(got) != len(img) {
		t.Fatalf("corrupt image is %d bytes, want a complete frame of %d", len(got), len(img))
	}
	flipped := 0
	for i := range img {
		if d := bits.OnesCount8(got[i] ^ img[i]); d != 0 {
			flipped += d
			if i < frameHeaderLen {
				t.Errorf("corruption hit header byte %d, want a payload byte", i)
			}
		}
	}
	if flipped != 1 {
		t.Errorf("corrupt image differs from the frame in %d bits, want exactly 1", flipped)
	}
	if _, err := ReadFrame(bytes.NewReader(got)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt image read back with %v, want a checksum error", err)
	}
	if got := wireBytes(t, s.Addr(), keyOf(f)); !bytes.Equal(got, append(append([]byte(nil), img...), img...)) {
		t.Errorf("first clean answer carried %d bytes, want the frame and one duplicate (%d)", len(got), 2*len(img))
	}
	if got := wireBytes(t, s.Addr(), keyOf(f)); !bytes.Equal(got, img) {
		t.Errorf("spent havoc still distorts the wire: %d bytes, want the frame alone (%d)", len(got), len(img))
	}
}

// TestPullThroughHavoc: a pull that meets a stump, then a bit-flipped
// frame, then the clean frame (with a duplicate behind it) returns the
// clean frame and nothing else. An empty payload has no bit to flip, so
// its corruptions degrade to stumps and are absorbed the same way.
func TestPullThroughHavoc(t *testing.T) {
	s := openFragServer(t)
	f := testFrame()
	empty := Frame{Seq: f.Seq, Shard: f.Shard, Dst: f.Dst + 1}
	s.arm(keyOf(f), 1, 1, 1)
	s.arm(keyOf(empty), 0, 2, 0)
	s.Publish([]Frame{f, empty})

	for _, want := range []Frame{f, empty} {
		got, err := Pull(fixedAddr(s.Addr()), want.Seq, int(want.Shard), int(want.Dst))
		if err != nil {
			t.Fatalf("pull through havoc: %v", err)
		}
		if keyOf(got) != keyOf(want) || got.Sent != want.Sent || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("pull through havoc returned %+v, want the published frame %+v", got, want)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.havoc[keyOf(f)]; h.served != 3 || h.dups != 0 {
		t.Errorf("havoc after the pull: %+v, want 3 pulls served and the duplicate spent", *h)
	}
}

// TestPullBlocksUntilPublish: a pull for an unpublished frame gets no
// byte until Publish, and a pull still blocked when the server closes
// is released empty-handed.
func TestPullBlocksUntilPublish(t *testing.T) {
	s := openFragServer(t)
	f := testFrame()

	conn := sendPull(t, s.Addr(), keyOf(f))
	if err := conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if n, err := conn.Read(one[:]); n != 0 || err == nil {
		t.Fatalf("unpublished frame answered (%d bytes, err %v), want the pull to block", n, err)
	}
	s.Publish([]Frame{f})
	if err := conn.SetReadDeadline(time.Now().Add(IOTimeout)); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrame(conn); err != nil || keyOf(got) != keyOf(f) {
		t.Fatalf("after publish: frame %+v, err %v", got, err)
	}

	never := sendPull(t, s.Addr(), fragKey{seq: 99})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := never.SetReadDeadline(time.Now().Add(IOTimeout)); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(never); len(got) != 0 {
		t.Errorf("close answered a never-published pull with %d bytes", len(got))
	}
}

// TestRetireBelow: a retired seq is gone — refused at once, not blocked
// on — and a later seq still serves, before and after the retirement.
func TestRetireBelow(t *testing.T) {
	s := openFragServer(t)
	for seq := uint64(1); seq <= 3; seq++ {
		s.Publish([]Frame{{Seq: seq, Shard: 2, Dst: 1}})
	}
	s.RetireBelow(3)
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := pullFrame(s.Addr(), seq, 2, 1); err == nil {
			t.Errorf("retired seq %d still served", seq)
		}
	}
	s.Publish([]Frame{{Seq: 4, Shard: 2, Dst: 1}})
	for seq := uint64(3); seq <= 4; seq++ {
		if _, err := pullFrame(s.Addr(), seq, 2, 1); err != nil {
			t.Errorf("seq %d after retiring below 3: %v", seq, err)
		}
	}
}

// TestPullRefusesWrongAnswer: a well-formed frame that answers a
// different (seq, shard, dst) than the one asked for is refused.
func TestPullRefusesWrongAnswer(t *testing.T) {
	answer := testFrame()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	defer func() {
		ln.Close()
		<-served
	}()
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var req [pullRequestLen]byte
			if _, err := io.ReadFull(conn, req[:]); err == nil {
				WriteFrame(conn, answer) // whatever was asked
			}
			conn.Close()
		}
	}()
	addr := ln.Addr().String()
	seq, shard, dst := answer.Seq, int(answer.Shard), int(answer.Dst)
	if _, err := pullFrame(addr, seq, shard, dst); err != nil {
		t.Fatalf("matching answer refused: %v", err)
	}
	for _, ask := range []struct {
		seq        uint64
		shard, dst int
	}{{seq + 1, shard, dst}, {seq, shard + 1, dst}, {seq, shard, dst + 1}} {
		if _, err := pullFrame(addr, ask.seq, ask.shard, ask.dst); err == nil || !strings.Contains(err.Error(), "answered with") {
			t.Errorf("pull %+v accepted frame %+v (err %v)", ask, keyOf(answer), err)
		}
	}
}

// TestPullFollowsResolver is the respawn case: the source's first
// incarnation is gone, the resolver first errs (not re-registered yet),
// then names the dead address, then the new incarnation's — and the
// pull succeeds on the re-published frame.
func TestPullFollowsResolver(t *testing.T) {
	f := testFrame()
	dead := openFragServer(t)
	deadAddr := dead.Addr()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	respawn := openFragServer(t)
	respawn.Publish([]Frame{f})

	calls := 0
	got, err := Pull(func() (string, error) {
		calls++
		switch calls {
		case 1:
			return "", io.ErrUnexpectedEOF
		case 2:
			return deadAddr, nil
		}
		return respawn.Addr(), nil
	}, f.Seq, int(f.Shard), int(f.Dst))
	if err != nil {
		t.Fatalf("pull across a respawn: %v", err)
	}
	if calls != 3 || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("resolver asked %d times (want 3: once per attempt), payload match %v", calls, bytes.Equal(got.Payload, f.Payload))
	}
}

// TestMergeInboxRejectsUndecodableFragment: a checksum-valid frame whose
// payload is not a fragment is a hard error, not line noise.
func TestMergeInboxRejectsUndecodableFragment(t *testing.T) {
	_, _, err := MergeInbox(0, 1, func(int) (Frame, error) { return Frame{Payload: []byte("not a fragment")}, nil })
	if err == nil || !strings.Contains(err.Error(), "decoding shard 0 fragment") {
		t.Fatalf("undecodable fragment: err %v", err)
	}
}
