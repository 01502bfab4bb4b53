package mpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mpclogic/internal/rel"
)

// The data plane: publish-and-pull, the one way a frame crosses a
// socket. A source publishes its frames on a fragment server; a
// destination pulls the frame it wants, naming it (seq, shard, dst),
// and re-pulls until it has a clean answer. A published frame is
// retained and served idempotently, so delay, duplication and
// re-delivery cannot change what a round computes — the re-pull IS the
// retransmission — and a peer that died and came back under a new
// address is just a slow pull. Two drivers run this loop and nothing
// else: TCPTransport.Exchange (tcp.go), which publishes and pulls every
// shard of one exchange inside one process, and an mpcnet worker,
// which publishes its own shard and pulls its peers'.
//
// A stream, not a pull, is the unit of connection. A destination keeps
// one Stream per source for as long as it has frames to pull from it and
// sends request after request down it: sixteen bytes (seq u64 |
// shard u32 | dst u32, little-endian), answered by one frame. Serving
// blocks until the requested frame is published. The contract:
//
//   - Who closes. The puller closes a healthy stream, when its driver is
//     done with the source. The server ends a stream only when it cannot
//     answer cleanly — the request is malformed or names a retired seq,
//     the answer is an armed stump or bit-flipped image, a write fails —
//     and when it is itself closed. The puller drops the connection on
//     ANY error and re-enters the retry loop: back off, ask the resolver,
//     redial, re-request. A stream never survives an error, so nothing
//     half-read is ever left in front of the next answer.
//   - When deadlines are armed. Never while a stream idles between
//     requests: idle is not failure. The server arms one from the first
//     byte of a request to its last, and again for the answer's write;
//     the puller arms one for the request's write and one for the
//     answer's read. The publish wait in between is bounded by the
//     puller's read deadline alone.
//   - Why a duplicate cannot be mis-read. Every answer is checked
//     against the question: a frame for another (seq, shard, dst) is
//     refused and the stream dropped. A duplicate trailing a good answer
//     therefore sits on the wire until the next request, fails that
//     request's check — it names the previous key — and dies with the
//     connection; it is never consumed as the next frame.
//
// Retention invariant, stated once for everything that relies on it:
// when a destination's pulls of seq r complete, every source has
// published r, so every source has finished its own pulls of r−1 and no
// live source will ask for anything below r. A source that crashes and
// resumes rewinds at most one seq (mpcnet resumes from its newest
// checkpoint minus one), so nothing below r−1 can ever be asked for
// again: frames and checkpoints below r−1 are unreachable.
//
// Deadlines on sockets are liveness bounds only — they decide when a
// broken exchange FAILS, never what a successful exchange computes —
// which is the one sanctioned use of wall time in engine code (see the
// wallclock-free analyzer's deadline allowance).

const (
	// IOTimeout bounds every socket operation of the data plane and of
	// mpcnet's control plane (dial, request, response). Generous: it
	// only fires when the exchange is already broken.
	IOTimeout = 10 * time.Second
	// dialAttempts bounds one Dial's attempts: its backoffs sleep
	// ≈ 75 ms in total.
	dialAttempts = 5
	// pullAttempts bounds one Stream.Pull's attempts. An attempt dials
	// at most once, so against a refused peer the pull gives up after
	// the backoffs between attempts, ≈ 31 s in total (TestPullBudget),
	// which covers the window where a crashed peer has not re-registered
	// yet.
	pullAttempts = 128
	// pullRequestLen is seq+shard+dst.
	pullRequestLen = 8 + 4 + 4
)

// dialJitter derives a deterministic 0–4ms jitter from (salt, attempt)
// for the retry backoff — a hash, not a shared rand.Rand, because pulls
// and dials from different exchanges and goroutines back off
// concurrently and must not race on generator state. The spread keeps
// pullers retrying against the same swamped or re-registering peer from
// stampeding back in lockstep.
func dialJitter(salt, attempt int) time.Duration {
	h := uint64(salt)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return time.Duration(h%5) * time.Millisecond
}

// backoff is the pause before retry attempt (≥1) of the plane's one
// retry loop: exponential from 5ms capped at 250ms, plus the
// deterministic per-(salt, attempt) jitter. The first retries come fast
// — most failures are line noise, a listener briefly swamped, or a peer
// that published a beat later — while a genuinely crashed peer is
// re-polled at the capped rate until it re-registers.
func backoff(salt, attempt int) time.Duration {
	d := 5 * time.Millisecond
	for i := 1; i < attempt && d < 250*time.Millisecond; i++ {
		d *= 2
	}
	return min(d, 250*time.Millisecond) + dialJitter(salt, attempt)
}

// retry is the plane's one retry loop, the control plane's Dial and the
// data plane's Pull alike: it runs try up to attempts times, sleeping
// backoff(salt, k) before attempt k ≥ 1, and returns the first success
// or the last error. salt decorrelates concurrent retriers.
func retry[T any](attempts, salt int, try func() (T, error)) (T, error) {
	var v T
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(salt, attempt)) //lint:allow wallclock-free retry backoff through line noise, a swamped listener or a peer re-registering after a crash; connection liveness only, never logical time
		}
		if v, err = try(); err == nil {
			return v, nil
		}
	}
	return v, err
}

// Dial connects to a control-plane address through the plane's retry
// loop — a listener briefly swamped by concurrent connections (or
// resetting as a crashed peer dies) refuses a dial that succeeds a
// moment later; salt decorrelates concurrent dialers. The data plane
// does not use it: a Stream dials once per attempt of Pull's retry.
func Dial(addr string, salt int) (net.Conn, error) {
	return retry(dialAttempts, salt, func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, IOTimeout)
	})
}

// ShardFrames renders shard's outboxes as the frames a fragment server
// publishes for exchange seq: one per destination, always — an empty
// outbox is an empty-instance frame, so a destination learns the shard
// has nothing for it instead of waiting forever — but own, whose outbox
// stays in process (an mpcnet worker's own server; −1 for none, as in
// TCPTransport, whose own links are socket links like any other). Each
// frame is imaged once, here: the header, then the outbox's canonical
// encoding, in one buffer sized exactly, checksummed once. Its Payload
// aliases that image, which the fragment server writes to every clean
// pull.
func ShardFrames(seq uint64, shard int, sh Shard, own int) []Frame {
	frames := make([]Frame, 0, len(sh.Outs))
	for dst, out := range sh.Outs {
		if dst == own {
			continue
		}
		if out == nil {
			out = rel.NewInstance()
		}
		img := rel.AppendInstance(make([]byte, frameHeaderLen, frameHeaderLen+rel.EncodedSize(out)), out)
		f := Frame{
			Seq:     seq,
			Shard:   uint32(shard),
			Dst:     uint32(dst),
			Sent:    uint32(sh.Sent[dst]),
			Payload: img[frameHeaderLen:],
			image:   img,
		}
		hdr := frameHeader(f)
		copy(img, hdr[:])
		frames = append(frames, f)
	}
	return frames
}

// MergeInbox is the one inbox merge: it assembles destination dst's
// inbox from one fragment per shard, for every transport. Shard w's
// fragment is held in process — held(w).Outs[dst], when held is non-nil
// and returns a shard — or else pulled, the frame pull(w) returns.
// Fragments are merged in ascending shard order — position, never
// arrival — so two transports, or two runs of one, build the same
// inbox no matter how the network interleaves. Every relation is sized
// first, from the held outboxes and from the frames' headers
// (rel.ScanInstance), and built once: what one fragment ships alone is
// adopted, the held outbox's relation itself or the frame's decoded
// one; what several ship is one relation presized to their lengths
// together, into which each is unioned or decoded
// (rel.DecodeInstanceInto) in shard order, each fact landing once. An
// inbox becomes the server's fragment, which may live as long as its
// owner does, so it must not carry the slack of growing the first copy
// to fit the others. When every fragment is held (pull is nil) and
// every shard was routed under an Owner and no Keep, no tuple is in two
// copies, so they are appended and the inbox builds no table; a frame's
// bytes are never vouched for, so a merge that pulls anything unions
// even the held copies. The received count sums the held shards' Sent
// and the frames' Sent fields. A well-formed frame with an undecodable
// payload is a hard error: the peer speaks the frame format but not the
// fragment format. So is a relation two shards ship at two arities, an
// *arityError, whichever shard ships it first and however it arrives.
//
// A held-only merge that at most one shard ships anything to builds
// nothing: the inbox is that shard's outbox itself, or a fresh empty
// instance — what a gather's p − 1 idle destinations receive.
func MergeInbox(dst, nshards int, held func(w int) *Shard, pull func(w int) (Frame, error)) (*rel.Instance, int, error) {
	if pull == nil {
		if inbox, n, ok := mergeAlone(dst, nshards, held); ok {
			return inbox, n, nil
		}
	}
	if held == nil {
		held = func(int) *Shard { return nil }
	}
	// What each relation's shippers ship together, in first-shipped order.
	type shipment struct {
		name                    string
		arity, tuples, shippers int
	}
	var shipped []shipment
	at := make(map[string]int)
	var clash *arityError // the first shipper at an arity the relation's first did not ship
	var w int             // the shard ship is sizing
	ship := func(name string, arity, tuples int) {
		i, ok := at[name]
		if !ok {
			i = len(shipped)
			at[name] = i
			shipped = append(shipped, shipment{name: name, arity: arity})
		}
		if first := shipped[i].arity; first != arity && clash == nil {
			clash = &arityError{dst: dst, shard: w, rel: name, arity: arity, first: first}
		}
		shipped[i].tuples += tuples
		shipped[i].shippers++
	}
	var frames []Frame // frames[w]: shard w's pulled fragment; a held-only merge pulls none
	if pull != nil {
		frames = make([]Frame, nshards)
	}
	var names [][]string // names[w]: the relations held shard w ships
	owned := pull == nil
	n := 0
	for w = 0; w < nshards; w++ {
		if sh := held(w); sh != nil {
			owned = owned && sh.owned
			n += sh.Sent[dst]
			if out := sh.Outs[dst]; out != nil {
				if names == nil {
					names = make([][]string, nshards)
				}
				names[w] = out.RelationNames()
				for _, name := range names[w] {
					r := out.Relation(name)
					ship(name, r.Arity, r.Len())
				}
			}
			continue
		}
		f, err := pull(w)
		if err != nil {
			return nil, 0, err
		}
		if err := rel.ScanInstance(f.Payload, ship); err != nil {
			return nil, 0, fmt.Errorf("mpc: server %d decoding shard %d fragment of exchange %d: %w", dst, w, f.Seq, err)
		}
		frames[w] = f
		n += int(f.Sent)
	}
	if clash != nil {
		return nil, 0, clash
	}
	inbox := rel.NewInstanceSize(len(shipped))
	for _, s := range shipped {
		if s.shippers > 1 {
			inbox.EnsureRelationSize(s.name, s.arity, s.tuples)
		}
	}
	for w = 0; w < nshards; w++ {
		sh := held(w)
		if sh == nil {
			if err := rel.DecodeInstanceInto(inbox, frames[w].Payload); err != nil {
				return nil, 0, fmt.Errorf("mpc: server %d decoding shard %d fragment of exchange %d: %w", dst, w, frames[w].Seq, err)
			}
			continue
		}
		out := sh.Outs[dst]
		if out == nil {
			continue
		}
		for _, name := range names[w] {
			switch o := out.Relation(name); {
			case shipped[at[name]].shippers == 1:
				inbox.SetRelationAs(name, o) // its only shipper
			case owned:
				inbox.Relation(name).UnionDistinct(o)
			default:
				inbox.Relation(name).UnionWith(o)
			}
		}
	}
	return inbox, n, nil
}

// mergeAlone is MergeInbox's held-only merge when at most one shard
// ships to dst: that shard's outbox, adopted whole — routing leaves no
// empty relation in an outbox, so it holds what the general merge would
// adopt relation by relation — or an empty inbox, and the held shards'
// Sent summed. ok is false when two shards ship to dst, or a shard is
// not held.
func mergeAlone(dst, nshards int, held func(w int) *Shard) (inbox *rel.Instance, n int, ok bool) {
	if held == nil {
		return nil, 0, false
	}
	for w := 0; w < nshards; w++ {
		sh := held(w)
		if sh == nil {
			return nil, 0, false
		}
		if out := sh.Outs[dst]; out != nil {
			if inbox != nil {
				return nil, 0, false
			}
			inbox = out
		}
		n += sh.Sent[dst]
	}
	if inbox == nil {
		inbox = rel.NewInstance()
	}
	return inbox, n, true
}

// arityError is MergeInbox's refusal of a relation two shards ship at
// two arities: no inbox can hold both, whatever order they come in.
type arityError struct {
	dst, shard   int
	rel          string
	arity, first int // the clashing shard's arity, and the first shipper's
}

func (e *arityError) Error() string {
	return fmt.Sprintf("mpc: server %d: shard %d ships %s at arity %d, an earlier shard at arity %d",
		e.dst, e.shard, e.rel, e.arity, e.first)
}

// fragKey names one published frame.
type fragKey struct {
	seq        uint64
	shard, dst uint32
}

func keyOf(f Frame) fragKey { return fragKey{f.Seq, f.Shard, f.Dst} }

// FragServer is a source's side of the plane: published frames, served
// to pulling destinations until they are retired. It owns no goroutine:
// the driver runs Serve on one of its own and joins it after Close, so
// a finished driver provably leaves nothing running.
type FragServer struct {
	ln        *net.TCPListener
	ioTimeout time.Duration // IOTimeout; a field so tests can shorten it

	mu      sync.Mutex
	cond    *sync.Cond
	frags   map[fragKey]Frame
	havoc   map[fragKey]*frameHavoc // armed wire faults (see arm)
	floor   uint64                  // seqs below are retired
	streams []*net.TCPConn          // open streams, each owned by a handler inside Serve
	done    bool
}

// NewFragServer opens a fragment server on a loopback port. Callers own
// it: they run Serve, and Close it when done.
func NewFragServer() (*FragServer, error) {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("mpc: opening fragment server: %w", err)
	}
	s := &FragServer{ln: ln, ioTimeout: IOTimeout, frags: make(map[fragKey]Frame), havoc: make(map[fragKey]*frameHavoc)}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Addr is the address destinations pull from.
func (s *FragServer) Addr() string { return s.ln.Addr().String() }

// Publish makes frames pullable. A frame published without its image
// (not from ShardFrames) is imaged here, once. Re-publishing after a
// recovery overwrites with byte-identical frames (deterministic
// re-execution), so pulls before and after a crash see the same bytes.
func (s *FragServer) Publish(frames []Frame) {
	s.mu.Lock()
	for _, f := range frames {
		if f.image == nil {
			f.image = encodeFrame(f)
		}
		s.frags[keyOf(f)] = f
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// RetireBelow drops every frame of a seq below seq and refuses later
// pulls for them; see the retention invariant above for when that is
// safe.
func (s *FragServer) RetireBelow(seq uint64) {
	s.mu.Lock()
	if seq > s.floor {
		s.floor = seq
	}
	for k := range s.frags {
		if k.seq < seq {
			delete(s.frags, k)
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close stops Serve: it closes the listener and every open stream —
// an idle stream's handler is blocked reading the next request, which
// only the close ends — and releases every pull blocked on a frame that
// was never published. Closing twice is harmless: the second call only
// reports the listener already closed.
func (s *FragServer) Close() error {
	s.mu.Lock()
	s.done = true
	errs := []error{s.ln.Close()}
	// Under the lock a tracked stream is still open: its handler untracks
	// (which takes the lock) before it closes.
	for _, conn := range s.streams {
		errs = append(errs, conn.Close())
	}
	s.streams = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	return errors.Join(errs...)
}

// track registers an accepted stream for Close to end; false when the
// server closed first.
func (s *FragServer) track(conn *net.TCPConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return false
	}
	s.streams = append(s.streams, conn)
	return true
}

func (s *FragServer) untrack(conn *net.TCPConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.streams {
		if c == conn {
			s.streams = append(s.streams[:i], s.streams[i+1:]...)
			return
		}
	}
}

// wait blocks until k is published, then returns its frame and what
// armed havoc does to this pull; false when k is retired or the server
// closed first.
func (s *FragServer) wait(k fragKey) (Frame, pullFault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done || k.seq < s.floor {
			return Frame{}, pullFault{}, false
		}
		if f, ok := s.frags[k]; ok {
			return f, s.havoc[k].next(), true
		}
		s.cond.Wait()
	}
}

// Serve answers pulls, one goroutine per stream, until Close; it returns
// once every handler has — each is ended by its peer closing the stream,
// by an I/O deadline, or by Close, which closes the streams and releases
// the publish wait.
func (s *FragServer) Serve() {
	var handlers sync.WaitGroup
	for {
		conn, err := s.ln.AcceptTCP()
		if err != nil {
			break // listener closed
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			s.serve(conn)
		}()
	}
	handlers.Wait()
}

// serve answers request after request on one stream until the peer
// closes it, the server closes, or an answer cannot be clean.
func (s *FragServer) serve(conn *net.TCPConn) {
	defer conn.Close() // after untrack; best-effort, Close may have closed it already
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	for {
		// Idle is not failure: the wait for a request's first byte carries
		// no deadline; the rest of it, and the answer, do.
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return
		}
		var req [pullRequestLen]byte
		if _, err := io.ReadFull(conn, req[:1]); err != nil {
			return // the peer is done with the stream, or Close ended it
		}
		if err := conn.SetDeadline(time.Now().Add(s.ioTimeout)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, req[1:]); err != nil {
			return // malformed pull: drop the stream, the peer retries
		}
		f, fault, ok := s.wait(fragKey{
			seq:   binary.LittleEndian.Uint64(req[0:]),
			shard: binary.LittleEndian.Uint32(req[8:]),
			dst:   binary.LittleEndian.Uint32(req[12:]),
		})
		if !ok {
			return
		}
		// Re-arm the deadline: the publish wait may have consumed the
		// original one while the peer was ahead of us.
		if err := conn.SetDeadline(time.Now().Add(s.ioTimeout)); err != nil {
			return
		}
		img, reset := fault.image(f)
		if reset {
			_ = conn.SetLinger(0) //lint:allow error-discard arming the RST is the fault being injected; failure degrades to a FIN abort
		}
		if _, err := conn.Write(img); err != nil {
			return // failed send: the peer's read errors and it re-pulls
		}
		if fault.stump || fault.corrupt {
			return // a broken answer ends the stream, as a real broken transfer would
		}
	}
}

// frameHavoc is one frame's armed wire faults: its first drops pulls
// are answered with a stump, the next corrupts with a bit-flipped
// image, and the first clean answer is followed by dups extra copies.
type frameHavoc struct{ drops, corrupts, dups, served int }

// pullFault is what armed havoc does to one pull.
type pullFault struct {
	stump, corrupt bool
	attempt        int // index among the faults of its kind; picks the shape
	dups           int // clean answers only: extra identical frames after the good one
}

// arm schedules wire faults for frame k (unexported: only the
// fault-tolerance layer's FrameFaultInjector arms havoc).
func (s *FragServer) arm(k fragKey, drops, corrupts, dups int) {
	if drops+corrupts+dups == 0 {
		return
	}
	s.mu.Lock()
	s.havoc[k] = &frameHavoc{drops: drops, corrupts: corrupts, dups: dups}
	s.mu.Unlock()
}

// next consumes one pull's share of the havoc. A nil receiver is an
// unarmed frame.
func (h *frameHavoc) next() pullFault {
	if h == nil {
		return pullFault{}
	}
	i := h.served
	h.served++
	switch {
	case i < h.drops:
		return pullFault{stump: true, attempt: i}
	case i < h.drops+h.corrupts:
		return pullFault{corrupt: true, attempt: i - h.drops}
	}
	dups := h.dups
	h.dups = 0
	return pullFault{dups: dups}
}

// image is what the wire carries for f under the fault, and whether the
// connection is then aborted with an RST instead of a FIN. A clean
// answer is f's stored image itself; only a fault builds bytes of its
// own, so the damage never reaches the image later pulls are served.
//
// A stump realizes one dropped transfer, alternating two shapes by
// attempt: even attempts die mid-header (a FIN after half a header),
// odd attempts ship the full header plus half the payload and then
// reset. A corrupt image is the complete frame with a single payload
// bit flipped after the checksum was computed, at a position that is a
// deterministic function of the attempt so repeated corruptions hit
// different bytes; with no payload there is nothing to flip, and a
// stump is the nearest fault. Either way the puller's ReadFrame fails,
// the stream ends on both sides and the puller pulls again. Duplicates
// trail the good frame on the stream, which stays open: the puller's
// next request finds them in front of its answer and refuses them (see
// the stream contract above).
func (pf pullFault) image(f Frame) (img []byte, reset bool) {
	img = f.image
	switch {
	case pf.corrupt && len(f.Payload) > 0:
		img = slices.Clone(img)
		img[frameHeaderLen+(pf.attempt*131+7)%len(f.Payload)] ^= 1 << (pf.attempt % 8)
	case pf.corrupt || pf.stump:
		if pf.attempt%2 == 0 {
			return img[:frameHeaderLen/2], false
		}
		cut := frameHeaderLen + len(f.Payload)/2
		if cut >= len(img) {
			cut = len(img) - 1 // an empty payload still must not complete the frame
		}
		return img[:cut], true
	}
	if pf.dups > 0 {
		img = bytes.Repeat(img, 1+pf.dups)
	}
	return img, false
}

// Stream is a destination's side of the plane: its connection to one
// fragment server, kept across pulls, and the only code that writes a
// request to a socket or reads a frame off one. It dials lazily — at the
// first request, and again after any error, once per attempt with no
// backoff of its own (Pull's retry is the one) — asking resolve for the
// server's address before every dial, because the address changes when
// the source is respawned. One request may be in flight at a time. Not
// safe for concurrent use.
type Stream struct {
	resolve   func() (string, error)
	dst       int
	ioTimeout time.Duration // IOTimeout; a field so tests can shorten it

	conn   net.Conn // nil until the first request and after a drop
	posted bool     // a request is on the wire, its answer unread
}

// OpenStream returns destination dst's stream to the fragment server
// resolve names. No connection is made yet. Callers own the stream and
// must Close it.
func OpenStream(resolve func() (string, error), dst int) *Stream {
	return &Stream{resolve: resolve, dst: dst, ioTimeout: IOTimeout}
}

// Close drops the connection, if any. The stream stays usable: the next
// request redials.
func (st *Stream) Close() error {
	if st.conn == nil {
		return nil
	}
	conn := st.conn
	st.conn, st.posted = nil, false
	return conn.Close()
}

// request puts the pull request for (seq, shard) on the wire, dialing
// first when no connection is live.
func (st *Stream) request(seq uint64, shard int) error {
	if st.conn == nil {
		addr, err := st.resolve()
		if err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", addr, st.ioTimeout)
		if err != nil {
			return err
		}
		st.conn = conn
	}
	if err := st.conn.SetWriteDeadline(time.Now().Add(st.ioTimeout)); err != nil {
		return err
	}
	var req [pullRequestLen]byte
	binary.LittleEndian.PutUint64(req[0:], seq)
	binary.LittleEndian.PutUint32(req[8:], uint32(shard))
	binary.LittleEndian.PutUint32(req[12:], uint32(st.dst))
	if _, err := st.conn.Write(req[:]); err != nil {
		return err
	}
	st.posted = true
	return nil
}

// answer reads the frame answering the request in flight (sending it
// first if none was posted) — with every codec check ReadFrame makes —
// and refuses an answer to a different question.
func (st *Stream) answer(seq uint64, shard int) (Frame, error) {
	if !st.posted {
		if err := st.request(seq, shard); err != nil {
			return Frame{}, err
		}
	}
	st.posted = false
	if err := st.conn.SetReadDeadline(time.Now().Add(st.ioTimeout)); err != nil {
		return Frame{}, err
	}
	f, err := ReadFrame(st.conn)
	if err != nil {
		return Frame{}, err
	}
	if f.Seq != seq || int(f.Shard) != shard || int(f.Dst) != st.dst {
		return Frame{}, fmt.Errorf("mpc: pull (seq %d, shard %d, dst %d) answered with frame (seq %d, shard %d, dst %d)",
			seq, shard, st.dst, f.Seq, f.Shard, f.Dst)
	}
	return f, nil
}

// try is one pull attempt. Any error — dial, write, short read, a frame
// the codec rejects, an answer to a different question — costs the
// connection, so a retry starts from a clean one.
func (st *Stream) try(seq uint64, shard int) (Frame, error) {
	f, err := st.answer(seq, shard)
	if err != nil {
		defer st.Close() // broken stream: close is best-effort
	}
	return f, err
}

// Post sends the request for frame (seq, shard, dst) without waiting for
// the answer, so the source's answer is in flight while the caller does
// something else; the matching Pull reads it. A post that fails (the
// peer is gone, or was respawned under an address the resolver has not
// learned yet) is not an error: it leaves the stream without a
// connection and Pull starts its retry loop from there.
func (st *Stream) Post(seq uint64, shard int) {
	if err := st.request(seq, shard); err != nil {
		defer st.Close() // broken stream: close is best-effort
	}
}

// Pull fetches frame (seq, shard, dst) over the stream — reading the
// posted answer, or requesting and reading — and re-pulls through line
// noise (aborted connections, malformed or bit-flipped frames, wrong
// answers) and a respawned source, each retry on a fresh connection
// after the plane's backoff, salted by the link.
func (st *Stream) Pull(seq uint64, shard int) (Frame, error) {
	f, err := retry(pullAttempts, shard<<16^st.dst, func() (Frame, error) { return st.try(seq, shard) })
	if err != nil {
		return Frame{}, fmt.Errorf("mpc: pulling exchange %d fragment %d→%d: %w", seq, shard, st.dst, err)
	}
	return f, nil
}
