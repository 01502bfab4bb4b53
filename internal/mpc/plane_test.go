package mpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"mpclogic/internal/rel"
)

func openFragServer(t *testing.T) *FragServer {
	t.Helper()
	return openFragServerTimeout(t, IOTimeout)
}

// openFragServerTimeout is openFragServer with the I/O bound shortened
// (set before Serve starts, so no handler races the write).
func openFragServerTimeout(t *testing.T, ioTimeout time.Duration) *FragServer {
	t.Helper()
	s, err := NewFragServer()
	if err != nil {
		t.Fatal(err)
	}
	s.ioTimeout = ioTimeout
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

// countingAddr is fixedAddr that counts how often it is asked — once per
// dial, so the count is the stream's connections so far.
func countingAddr(addr string) (func() (string, error), *int) {
	dials := new(int)
	return func() (string, error) {
		*dials++
		return addr, nil
	}, dials
}

// openStreams is how many streams s's handlers hold open right now.
func openStreams(s *FragServer) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

func sameFrame(a, b Frame) bool {
	return keyOf(a) == keyOf(b) && a.Sent == b.Sent && bytes.Equal(a.Payload, b.Payload)
}

// seqFrames are n distinguishable frames shard 2 → dst 1 with seqs
// 1..n (index i holds seq i+1).
func seqFrames(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = testFrame()
		frames[i].Seq = uint64(i + 1)
		frames[i].Payload = append(frames[i].Payload, byte(i)) // never decoded here
	}
	return frames
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

// wireBytes is everything the server puts on the wire for one pull: the
// request is followed by a FIN, so the server ends the stream after the
// answer instead of waiting for a next request.
func wireBytes(t *testing.T, addr string, k fragKey) []byte {
	t.Helper()
	conn := sendPull(t, addr, k)
	if err := conn.SetDeadline(time.Now().Add(IOTimeout)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite() // fails, harmlessly, when an RST stump has already torn the connection down
	got, _ := io.ReadAll(conn)       // an RST stump ends the read with an error by design
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
		resolve, dials := countingAddr(s.Addr())
		st := OpenStream(resolve, int(want.Dst))
		defer st.Close()
		got, err := st.Pull(want.Seq, int(want.Shard))
		if err != nil {
			t.Fatalf("pull through havoc: %v", err)
		}
		if !sameFrame(got, want) {
			t.Errorf("pull through havoc returned %+v, want the published frame %+v", got, want)
		}
		if *dials != 3 {
			t.Errorf("pull through two faults dialed %d times, want 3 (one redial per fault)", *dials)
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
	st := OpenStream(fixedAddr(s.Addr()), 1)
	defer st.Close()
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := st.try(seq, 2); err == nil {
			t.Errorf("retired seq %d still served", seq)
		}
	}
	s.Publish([]Frame{{Seq: 4, Shard: 2, Dst: 1}})
	for seq := uint64(3); seq <= 4; seq++ {
		if _, err := st.try(seq, 2); err != nil {
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
			// One stream at a time is all this test opens.
			var req [pullRequestLen]byte
			for {
				if _, err := io.ReadFull(conn, req[:]); err != nil {
					break
				}
				WriteFrame(conn, answer) // whatever was asked
			}
			conn.Close()
		}
	}()
	addr := ln.Addr().String()
	seq, shard, dst := answer.Seq, int(answer.Shard), int(answer.Dst)
	for _, ask := range []struct {
		seq        uint64
		shard, dst int
	}{{seq + 1, shard, dst}, {seq, shard + 1, dst}, {seq, shard, dst + 1}} {
		resolve, dials := countingAddr(addr)
		st := OpenStream(resolve, ask.dst)
		if ask.dst == dst {
			if _, err := st.try(seq, shard); err != nil {
				t.Fatalf("matching answer refused: %v", err)
			}
		}
		if _, err := st.try(ask.seq, ask.shard); err == nil || !strings.Contains(err.Error(), "answered with") {
			t.Errorf("pull %+v accepted frame %+v (err %v)", ask, keyOf(answer), err)
		}
		// The wrong answer cost the connection: the next request redials.
		before := *dials
		st.Post(ask.seq, ask.shard)
		if *dials != before+1 {
			t.Errorf("after a wrong answer the stream dialed %d times for the next request, want 1", *dials-before)
		}
		st.Close() // the fake server takes the next stream only after this one ends
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
	next := f
	next.Seq++
	respawn.Publish([]Frame{f, next})

	calls := 0
	st := OpenStream(func() (string, error) {
		calls++
		switch calls {
		case 1:
			return "", io.ErrUnexpectedEOF
		case 2:
			return deadAddr, nil
		}
		return respawn.Addr(), nil
	}, int(f.Dst))
	defer st.Close()
	got, err := st.Pull(f.Seq, int(f.Shard))
	if err != nil {
		t.Fatalf("pull across a respawn: %v", err)
	}
	if calls != 3 || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("resolver asked %d times (want 3: once per dial), payload match %v", calls, bytes.Equal(got.Payload, f.Payload))
	}
	// The stream is live now: further pulls ask nobody.
	if _, err := st.Pull(next.Seq, int(next.Shard)); err != nil {
		t.Fatalf("second pull on the live stream: %v", err)
	}
	if calls != 3 {
		t.Errorf("resolver asked %d times after a pull on a live stream, want still 3", calls)
	}
}

// TestStreamIsOneConnection: N pulls over one stream are one dial and
// one accepted stream at the server.
func TestStreamIsOneConnection(t *testing.T) {
	s := openFragServer(t)
	frames := seqFrames(8)
	s.Publish(frames)
	resolve, dials := countingAddr(s.Addr())
	st := OpenStream(resolve, 1)
	defer st.Close()
	for _, want := range frames {
		got, err := st.Pull(want.Seq, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFrame(got, want) {
			t.Errorf("pull of seq %d returned %+v", want.Seq, keyOf(got))
		}
	}
	if *dials != 1 || openStreams(s) != 1 {
		t.Errorf("%d pulls made %d dials and left %d streams open at the server, want 1 and 1", len(frames), *dials, openStreams(s))
	}
}

// TestStreamFaultCostsOneRedial: on a live stream, each kind of broken
// answer — a FIN stump, an RST stump, a bit-flipped frame — costs exactly
// one redial, the retried pull returns the clean frame, and the new
// connection then serves on. (The fourth kind, a wrong answer, is
// TestPullRefusesWrongAnswer and TestStreamRefusesTrailingDuplicate.)
func TestStreamFaultCostsOneRedial(t *testing.T) {
	for _, tc := range []struct {
		name            string
		drops, corrupts int
		burn            int // armed faults consumed by a raw pull first, to reach the shape under test
	}{
		{"fin-stump", 1, 0, 0},
		{"rst-stump", 2, 0, 1},
		{"bit-flip", 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openFragServer(t)
			frames := seqFrames(3)
			s.arm(keyOf(frames[1]), tc.drops, tc.corrupts, 0)
			s.Publish(frames)
			for i := 0; i < tc.burn; i++ {
				wireBytes(t, s.Addr(), keyOf(frames[1]))
			}
			resolve, dials := countingAddr(s.Addr())
			st := OpenStream(resolve, 1)
			defer st.Close()
			for i, want := range frames {
				got, err := st.Pull(want.Seq, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFrame(got, want) {
					t.Errorf("pull of seq %d returned %+v", want.Seq, keyOf(got))
				}
				if wantDials := 1 + min(i, 1); *dials != wantDials {
					t.Errorf("after pulling seq %d: %d dials, want %d", want.Seq, *dials, wantDials)
				}
			}
		})
	}
}

// TestStreamRefusesTrailingDuplicate: a duplicate left on the stream
// behind a good answer is what the next request reads first. The answer
// check refuses it — it is never taken for the next seq's frame — and
// the pull heals by redial.
func TestStreamRefusesTrailingDuplicate(t *testing.T) {
	s := openFragServer(t)
	frames := seqFrames(2)
	s.arm(keyOf(frames[0]), 0, 0, 1)
	s.Publish(frames)
	resolve, dials := countingAddr(s.Addr())
	st := OpenStream(resolve, 1)
	defer st.Close()
	if got, err := st.Pull(1, 2); err != nil || !sameFrame(got, frames[0]) {
		t.Fatalf("pull of the duplicated frame: %+v, %v", keyOf(got), err)
	}
	if _, err := st.try(2, 2); err == nil || !strings.Contains(err.Error(), "answered with frame (seq 1,") {
		t.Fatalf("request behind a trailing duplicate: err %v, want the duplicate refused as a wrong answer", err)
	}
	got, err := st.Pull(2, 2)
	if err != nil || !sameFrame(got, frames[1]) {
		t.Fatalf("pull after the duplicate: %+v, %v", keyOf(got), err)
	}
	if *dials != 2 {
		t.Errorf("%d dials, want 2: the duplicate costs exactly one redial", *dials)
	}
}

// TestPostThenPull: posting a request and pulling it later returns what
// a plain pull returns, over the same single connection — whether the
// frame was published before the post or after it.
func TestPostThenPull(t *testing.T) {
	s := openFragServer(t)
	frames := seqFrames(2)
	s.Publish(frames[:1])

	plain := OpenStream(fixedAddr(s.Addr()), 1)
	defer plain.Close()
	want, err := plain.Pull(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	resolve, dials := countingAddr(s.Addr())
	st := OpenStream(resolve, 1)
	defer st.Close()
	st.Post(1, 2)
	if got, err := st.Pull(1, 2); err != nil || !sameFrame(got, want) {
		t.Fatalf("post then pull: %+v, %v; want %+v", keyOf(got), err, keyOf(want))
	}
	st.Post(2, 2) // not published yet: the server holds the answer
	s.Publish(frames[1:])
	if got, err := st.Pull(2, 2); err != nil || !sameFrame(got, frames[1]) {
		t.Fatalf("post before publish, then pull: %+v, %v", keyOf(got), err)
	}
	if *dials != 1 {
		t.Errorf("%d dials, want 1", *dials)
	}
}

// TestFailedPostRecoversInPull: a post that cannot be sent (the address
// is dead) or whose answer never comes (the source died holding it) is
// not an error; the pull that follows redials, through the resolver, and
// returns the frame.
func TestFailedPostRecoversInPull(t *testing.T) {
	frames := seqFrames(2)
	first := openFragServer(t)
	first.Publish(frames[:1])
	respawn := openFragServer(t)
	respawn.Publish(frames)

	addr, calls := first.Addr(), 0
	st := OpenStream(func() (string, error) {
		calls++
		return addr, nil
	}, 1)
	defer st.Close()
	if _, err := st.Pull(1, 2); err != nil {
		t.Fatal(err)
	}
	st.Post(2, 2) // sent; the first incarnation never publishes seq 2
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	addr = respawn.Addr()
	if got, err := st.Pull(2, 2); err != nil || !sameFrame(got, frames[1]) {
		t.Fatalf("pull after the source died holding the posted request: %+v, %v", keyOf(got), err)
	}
	if calls != 2 {
		t.Errorf("resolver asked %d times, want 2 (first dial, redial)", calls)
	}

	// Now the post itself fails: respawn's address goes dead before it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	addr = first.Addr()
	st.Post(1, 2)
	addr = respawn.Addr()
	if got, err := st.Pull(1, 2); err != nil || !sameFrame(got, frames[0]) {
		t.Fatalf("pull after a post to a dead address: %+v, %v", keyOf(got), err)
	}
	if calls != 4 {
		t.Errorf("resolver asked %d times, want 4 (one more per dial)", calls)
	}
}

// TestIdleStreamOutlivesIOBound: with the I/O bound shortened on both
// sides (not so far that a loaded host's stall could exceed it), a
// stream idle for several bounds — and a posted request whose frame is
// published several bounds later — still serves, on the same connection:
// idle is not failure.
func TestIdleStreamOutlivesIOBound(t *testing.T) {
	const bound = 100 * time.Millisecond
	s := openFragServerTimeout(t, bound)
	frames := seqFrames(3)
	s.Publish(frames[:1])
	resolve, dials := countingAddr(s.Addr())
	st := OpenStream(resolve, 1)
	st.ioTimeout = bound
	defer st.Close()
	if _, err := st.Pull(1, 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * bound)
	s.Publish(frames[1:2])
	if got, err := st.Pull(2, 2); err != nil || !sameFrame(got, frames[1]) {
		t.Fatalf("pull on a stream idle for 3 bounds: %+v, %v", keyOf(got), err)
	}
	st.Post(3, 2)
	time.Sleep(3 * bound)
	s.Publish(frames[2:])
	if got, err := st.Pull(3, 2); err != nil || !sameFrame(got, frames[2]) {
		t.Fatalf("pull of a request posted 3 bounds before its publish: %+v, %v", keyOf(got), err)
	}
	if *dials != 1 {
		t.Errorf("%d dials, want 1: nothing timed out", *dials)
	}
}

// TestCloseEndsIdleStreams: Close with idle streams open — handlers
// blocked, deadline-free, on the next request — returns Serve at once,
// every handler joined.
func TestCloseEndsIdleStreams(t *testing.T) {
	s, err := NewFragServer()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve()
	}()
	f := testFrame()
	s.Publish([]Frame{f})
	for i := 0; i < 3; i++ {
		st := OpenStream(fixedAddr(s.Addr()), int(f.Dst))
		defer st.Close()
		if _, err := st.Pull(f.Seq, int(f.Shard)); err != nil {
			t.Fatal(err)
		}
	}
	if n := openStreams(s); n != 3 {
		t.Fatalf("%d streams open, want 3", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-served:
	case <-time.After(IOTimeout / 2):
		t.Fatal("Serve still running long after Close: an idle stream's handler was not ended")
	}
	if n := openStreams(s); n != 0 {
		t.Errorf("%d streams still tracked after Serve returned", n)
	}
}

// TestShardFramesAreImagedOnce: every frame ShardFrames publishes
// carries its wire image, byte-equal to encodeFrame of the frame and to
// what WriteFrame writes, sized exactly, its Payload the image's tail
// (not a copy) and the outbox's canonical encoding; and armed havoc
// damages copies only — after a
// stump, a bit flip and a duplicated answer, a clean pull carries the
// stored image and the image is as it was.
func TestShardFramesAreImagedOnce(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for seed := int64(0); seed < 10; seed++ {
			for w, sh := range lawShards(rand.New(rand.NewSource(seed)), p) {
				for _, f := range ShardFrames(5, w, sh, -1) {
					out := sh.Outs[f.Dst]
					if out == nil {
						out = rel.NewInstance()
					}
					switch {
					case !bytes.Equal(f.image, encodeFrame(f)):
						t.Fatalf("p=%d seed=%d: frame %d→%d: image differs from encodeFrame", p, seed, w, f.Dst)
					case !bytes.Equal(f.image, written(t, f)):
						t.Fatalf("p=%d seed=%d: frame %d→%d: image differs from what WriteFrame writes", p, seed, w, f.Dst)
					case cap(f.image) != len(f.image):
						t.Errorf("p=%d seed=%d: frame %d→%d: image has room for %d bytes, holds %d", p, seed, w, f.Dst, cap(f.image), len(f.image))
					case &f.image[frameHeaderLen] != &f.Payload[0]:
						t.Errorf("p=%d seed=%d: frame %d→%d: Payload is a copy, not the image's tail", p, seed, w, f.Dst)
					case !bytes.Equal(f.Payload, rel.EncodeInstance(out)):
						t.Errorf("p=%d seed=%d: frame %d→%d: payload is not the outbox's encoding", p, seed, w, f.Dst)
					}
				}
			}
		}
	}

	s := openFragServer(t)
	f := ShardFrames(7, 2, Shard{Outs: []*rel.Instance{nil, testInstance()}, Sent: []int{0, 3}}, 0)[0]
	img := bytes.Clone(f.image)
	s.arm(keyOf(f), 1, 1, 1)
	s.Publish([]Frame{f})
	for i := 0; i < 2; i++ {
		if got := wireBytes(t, s.Addr(), keyOf(f)); bytes.Equal(got, img) {
			t.Fatalf("armed pull %d carried the clean frame", i)
		}
	}
	if got := wireBytes(t, s.Addr(), keyOf(f)); !bytes.Equal(got, append(bytes.Clone(img), img...)) {
		t.Errorf("first clean answer carried %d bytes, want the frame and one duplicate (%d)", len(got), 2*len(img))
	}
	if got := wireBytes(t, s.Addr(), keyOf(f)); !bytes.Equal(got, img) {
		t.Errorf("clean pull after havoc carried %d bytes, want the stored image (%d)", len(got), len(img))
	}
	if !bytes.Equal(f.image, img) {
		t.Error("havoc damaged the stored image")
	}
}

// written is what WriteFrame writes for f.
func written(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeInboxRejectsUndecodableFragment: a checksum-valid frame whose
// payload is not a fragment is a hard error, not line noise.
func TestMergeInboxRejectsUndecodableFragment(t *testing.T) {
	_, _, err := MergeInbox(0, 1, nil, func(int) (Frame, error) { return Frame{Payload: []byte("not a fragment")}, nil })
	if err == nil || !strings.Contains(err.Error(), "decoding shard 0 fragment") {
		t.Fatalf("undecodable fragment: err %v", err)
	}
}

// TestFailedAttemptDialsOnce: one pull attempt against a refused peer is
// one dial with no backoff inside it — Pull's retry is the data plane's
// only one. The resolver is asked once per dial, and the attempt ends
// well inside the ≥ 75 ms of redial sleeps a Dial would add (the least
// of three trials is taken, so one slow schedule does not decide).
func TestFailedAttemptDialsOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	var dialBackoff time.Duration
	for attempt := 1; attempt < dialAttempts; attempt++ {
		dialBackoff += backoff(0, attempt)
	}
	fastest := time.Hour
	for trial := 0; trial < 3; trial++ {
		resolves := 0
		st := OpenStream(func() (string, error) { resolves++; return addr, nil }, 1)
		start := time.Now()
		_, err := st.try(1, 0)
		fastest = min(fastest, time.Since(start))
		if err == nil {
			t.Fatal("an attempt against a closed port succeeded")
		}
		if resolves != 1 {
			t.Fatalf("one attempt asked the resolver %d times, want 1: one dial", resolves)
		}
	}
	if fastest >= dialBackoff {
		t.Fatalf("the fastest failed attempt took %v, at least Dial's %v of backoff", fastest, dialBackoff)
	}
}

// TestPullBudget: the backoffs between a failing Pull's attempts add up
// to the ≈ 31 s pullAttempts' comment promises, on every link.
func TestPullBudget(t *testing.T) {
	for _, link := range [][2]int{{0, 0}, {1, 2}, {7, 3}, {63, 31}} {
		var total time.Duration
		for attempt := 1; attempt < pullAttempts; attempt++ {
			total += backoff(link[0]<<16^link[1], attempt)
		}
		if total < 30500*time.Millisecond || total > 31500*time.Millisecond {
			t.Errorf("link %d→%d: a failing pull sleeps %v in total, want ≈ 31 s", link[0], link[1], total)
		}
	}
}
