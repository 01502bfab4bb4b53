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
	// dialAttempts bounds one Dial's retries.
	dialAttempts = 5
	// pullAttempts bounds one Stream.Pull's retries: with pullBackoff that is
	// ~30s in total, like the socket deadline, and covers the window
	// where a crashed peer has not re-registered yet.
	pullAttempts = 128
	// pullRequestLen is seq+shard+dst.
	pullRequestLen = 8 + 4 + 4
)

// dialJitter derives a deterministic 0–4ms jitter from (salt, attempt)
// for the dial and re-pull backoffs — a hash, not a shared rand.Rand,
// because pulls from different exchanges and goroutines back off
// concurrently and must not race on generator state. The spread keeps
// pullers retrying against the same swamped or re-registering peer from
// stampeding back in lockstep.
func dialJitter(salt, attempt int) time.Duration {
	h := uint64(salt)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return time.Duration(h%5) * time.Millisecond
}

// Dial connects to a data- or control-plane address with a bounded
// retry — a listener briefly swamped by concurrent connections (or
// resetting as a crashed peer dies) refuses a dial that succeeds a
// moment later. Backoff grows linearly with a deterministic
// per-(salt, attempt) jitter; salt decorrelates concurrent dialers.
func Dial(addr string, salt int) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt)*10*time.Millisecond + dialJitter(salt, attempt)) //lint:allow wallclock-free bounded jittered dial backoff on connection I/O, never logical time
		}
		conn, err := net.DialTimeout("tcp", addr, IOTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
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

// MergeInbox assembles destination dst's inbox from one fragment per
// shard: fetch is asked for the shards in ascending order and their
// fragments are merged in that order — position, never arrival — as
// mergeShards' body, mergeOutboxes, merges outboxes, which is what
// makes the plane bit-compatible with mergeShards no matter how the
// network interleaves. A non-nil own is shard dst's own routing, whose
// outbox for dst is handed over in process at its position, dst: fetch
// is not asked for it, and it enters no codec. Every relation is sized
// from the frames' headers (rel.ScanInstance) and decoded once, straight
// into the inbox (rel.DecodeInstanceInto): what one fragment ships alone
// is its decoded relation, or own's relation itself; what several ship
// is one relation of their lengths together, each fact landing once.
// The received count sums the frames' Sent fields (and own's count for
// dst), so the accounting really crossed the wire. A well-formed frame
// with an undecodable payload is a hard error: the peer speaks the
// frame format but not the fragment format.
func MergeInbox(dst, nshards int, own *Shard, fetch func(shard int) (Frame, error)) (*rel.Instance, int, error) {
	// What each relation's shippers ship together, in first-shipped order.
	type shipment struct{ arity, tuples, shippers int }
	var names []string
	shipped := make(map[string]*shipment)
	ship := func(name string, arity, tuples int) {
		s := shipped[name]
		if s == nil {
			s = &shipment{arity: arity}
			shipped[name] = s
			names = append(names, name)
		}
		s.tuples += tuples
		s.shippers++
	}
	var mine *rel.Instance
	frames := make([]Frame, nshards)
	n := 0
	for w := range frames {
		if own != nil && w == dst {
			if mine = own.Outs[dst]; mine != nil {
				for _, name := range mine.RelationNames() {
					if r := mine.Relation(name); r.Len() > 0 {
						ship(name, r.Arity, r.Len())
					}
				}
			}
			n += own.Sent[dst]
			continue
		}
		f, err := fetch(w)
		if err != nil {
			return nil, 0, err
		}
		if err := rel.ScanInstance(f.Payload, ship); err != nil {
			return nil, 0, fmt.Errorf("mpc: server %d decoding shard %d fragment of exchange %d: %w", dst, w, f.Seq, err)
		}
		frames[w] = f
		n += int(f.Sent)
	}
	inbox := rel.NewInstanceSize(len(names))
	for _, name := range names {
		if s := shipped[name]; s.shippers > 1 {
			inbox.EnsureRelationSize(name, s.arity, s.tuples)
		}
	}
	for w, f := range frames {
		if own == nil || w != dst {
			if err := rel.DecodeInstanceInto(inbox, f.Payload); err != nil {
				return nil, 0, fmt.Errorf("mpc: server %d decoding shard %d fragment of exchange %d: %w", dst, w, f.Seq, err)
			}
			continue
		}
		if mine == nil {
			continue
		}
		for _, name := range mine.RelationNames() {
			switch o := mine.Relation(name); {
			case o.Len() == 0:
			case shipped[name].shippers == 1:
				inbox.SetRelationAs(name, o) // its only shipper
			default:
				inbox.Relation(name).UnionWith(o)
			}
		}
	}
	return inbox, n, nil
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

// pullBackoff is the pause before pull retry attempt (≥1): exponential
// from 5ms capped at 250ms, plus the deterministic per-(link, attempt)
// jitter. The first retries come fast — most pull failures
// are line noise or a peer that published a beat later — while a
// genuinely crashed peer is re-polled at the capped rate until it
// re-registers.
func pullBackoff(shard, dst, attempt int) time.Duration {
	d := 5 * time.Millisecond
	for i := 1; i < attempt && d < 250*time.Millisecond; i++ {
		d *= 2
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d + dialJitter(shard<<16^dst, attempt)
}

// Stream is a destination's side of the plane: its connection to one
// fragment server, kept across pulls, and the only code that writes a
// request to a socket or reads a frame off one. It dials lazily — at the
// first request, and again after any error — asking resolve for the
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
		conn, err := Dial(addr, shard)
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
// peer is gone, or not registered yet) is not an error: it leaves the
// stream without a connection and Pull starts its retry loop from there.
func (st *Stream) Post(seq uint64, shard int) {
	if err := st.request(seq, shard); err != nil {
		defer st.Close() // broken stream: close is best-effort
	}
}

// Pull fetches frame (seq, shard, dst) over the stream — reading the
// posted answer, or requesting and reading — and re-pulls through line
// noise (aborted connections, malformed or bit-flipped frames, wrong
// answers) and a respawned source, each retry on a fresh connection
// after a bounded jittered exponential backoff.
func (st *Stream) Pull(seq uint64, shard int) (Frame, error) {
	var lastErr error
	for attempt := 0; attempt < pullAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(pullBackoff(shard, st.dst, attempt)) //lint:allow wallclock-free re-pull backoff through line noise or while a crashed peer re-registers; connection liveness only, never logical time
		}
		f, err := st.try(seq, shard)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return Frame{}, fmt.Errorf("mpc: pulling exchange %d fragment %d→%d: %w", seq, shard, st.dst, lastErr)
}
