package mpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"mpclogic/internal/rel"
	"mpclogic/internal/sweep"
)

// The transport frame and the TCP transport. A frame is the unit the
// data plane (plane.go) publishes and pulls: shard w's outbox for one
// destination in one exchange. Its payload is the canonical rel
// fragment encoding (rel/wire.go), so it decodes to exactly the outbox
// instance the router built, and re-encoding it reproduces the frame —
// the codec laws the fuzzer pins.
//
// Every frame carries a CRC-32C checksum over its header fields and
// payload, so a bit-flipped frame is rejected at the codec layer
// before any fragment decoding runs — the puller drops it, and the
// stream it came down, as line noise and pulls again. This is what
// makes the data plane self-healing under corruption havoc: a corrupted
// transfer costs retries in the virtual clock (faults.go Corrupt
// events) but can never change what the round computes.

// Frame is one transport message: shard w's outbox for destination
// dst in exchange Seq, carrying the logical Sent count and the
// canonical fragment encoding as payload.
type Frame struct {
	Seq     uint64 // exchange sequence number, per transport
	Shard   uint32 // source shard index
	Dst     uint32 // destination server
	Sent    uint32 // logical facts in this delivery (payload fact count)
	Payload []byte // canonical rel instance encoding (may be empty-instance)

	// image is the frame's whole wire image, Payload aliasing its tail,
	// when one was built (ShardFrames, Publish); a fragment server
	// writes it to every clean pull as it stands.
	image []byte
}

const (
	frameMagic uint32 = 0x4d435046 // "FPCM" little-endian
	// FrameVersion is the transport frame format version; bump on
	// layout changes so mismatched binaries fail loudly. Version 2
	// added the CRC-32C checksum field.
	FrameVersion uint16 = 2
	// frameHeaderLen is magic+version+seq+shard+dst+sent+payloadLen+crc.
	frameHeaderLen = 4 + 2 + 8 + 4 + 4 + 4 + 4 + 4
	// maxFramePayload caps a frame's declared payload so a corrupt
	// length prefix cannot trigger a huge allocation.
	maxFramePayload = 1 << 30
)

// frameCRCTable is the Castagnoli polynomial table; CRC-32C detects
// all burst errors up to 32 bits, covering every single-bit flip the
// corruption havoc injects.
var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame serializes f to its full wire image, checksum included:
// its header, then a copy of its payload.
func encodeFrame(f Frame) []byte {
	hdr := frameHeader(f)
	return append(hdr[:], f.Payload...)
}

// frameHeader is the one frame encoder: f's header, whose CRC-32C
// covers every header field after magic+version plus the payload, so
// corruption anywhere in the frame body is detected. The payload
// follows it on the wire — copied behind it (encodeFrame), encoded
// behind it in place (ShardFrames), or written after it (WriteFrame).
func frameHeader(f Frame) (hdr [frameHeaderLen]byte) {
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint16(hdr[4:], FrameVersion)
	binary.LittleEndian.PutUint64(hdr[6:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[14:], f.Shard)
	binary.LittleEndian.PutUint32(hdr[18:], f.Dst)
	binary.LittleEndian.PutUint32(hdr[22:], f.Sent)
	binary.LittleEndian.PutUint32(hdr[26:], uint32(len(f.Payload)))
	crc := crc32.Update(0, frameCRCTable, hdr[6:frameHeaderLen-4])
	crc = crc32.Update(crc, frameCRCTable, f.Payload)
	binary.LittleEndian.PutUint32(hdr[frameHeaderLen-4:], crc)
	return hdr
}

// WriteFrame writes f to w in wire format (integers little-endian):
//
//	frame := magic u32 | version u16 | seq u64 | shard u32 | dst u32
//	       | sent u32 | payloadLen u32 | crc u32 | payload
//
// where crc is CRC-32C over seq..payloadLen plus the payload. The
// payload is written as it lies, after the header, never copied.
func WriteFrame(w io.Writer, f Frame) error {
	hdr := frameHeader(f)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("mpc: writing frame: %w", err)
	}
	if _, err := w.Write(f.Payload); err != nil {
		return fmt.Errorf("mpc: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r. Truncation, bad magic or version,
// oversized payload prefixes, and checksum mismatches are errors,
// never panics — a puller (Stream, the one caller that reads a socket)
// treats them as line noise, drops the connection and pulls again.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, fmt.Errorf("mpc: reading frame header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != frameMagic {
		return Frame{}, fmt.Errorf("mpc: bad frame magic %#x (want %#x)", magic, frameMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FrameVersion {
		return Frame{}, fmt.Errorf("mpc: unsupported frame version %d (this peer speaks %d)", v, FrameVersion)
	}
	f := Frame{
		Seq:   binary.LittleEndian.Uint64(hdr[6:]),
		Shard: binary.LittleEndian.Uint32(hdr[14:]),
		Dst:   binary.LittleEndian.Uint32(hdr[18:]),
		Sent:  binary.LittleEndian.Uint32(hdr[22:]),
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[26:])
	if payloadLen > maxFramePayload {
		return Frame{}, fmt.Errorf("mpc: frame declares %d payload bytes (cap %d)", payloadLen, maxFramePayload)
	}
	var err error
	if f.Payload, err = readPayload(r, int(payloadLen)); err != nil {
		return Frame{}, fmt.Errorf("mpc: reading frame payload: %w", err)
	}
	want := binary.LittleEndian.Uint32(hdr[frameHeaderLen-4:])
	got := crc32.Update(0, frameCRCTable, hdr[6:frameHeaderLen-4])
	got = crc32.Update(got, frameCRCTable, f.Payload)
	if got != want {
		return Frame{}, fmt.Errorf("mpc: frame checksum mismatch (header says %#x, body hashes to %#x)", want, got)
	}
	return f, nil
}

// payloadChunk is what a frame's declared length alone can make
// readPayload allocate.
const payloadChunk = 1 << 20

// readPayload reads an n-byte payload, allocating as the bytes arrive
// rather than all n up front: a frame that declares more than it
// carries costs at most payloadChunk beyond what it carried, so a peer
// cannot make the reader hold memory by lying about a length.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, payloadChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// TCPTransport runs the communication phase over loopback TCP as a
// driver of the data plane: every shard published on one fragment
// server, every destination pulling its frames over one stream — one
// listener and p connections per exchange. The server lives exactly as
// long as one Exchange — opened, served, closed and joined inside it —
// so the transport holds no socket and no goroutine between rounds. It
// implements Transport and FrameFaultInjector. Not safe for concurrent
// Exchange calls (the Transport contract already forbids them).
type TCPTransport struct {
	p      int
	seq    uint64
	closed bool

	// Armed frame havoc for the next exchange (see InjectFrameFaults);
	// one-shot, cleared after use.
	havocRound int
	havocPlan  *FaultPlan
}

// NewTCPTransport returns a transport for a p-server deployment, ready
// to Exchange. Callers own the transport and must Close it.
func NewTCPTransport(p int) (*TCPTransport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpc: TCP transport needs at least one server (got p=%d)", p)
	}
	return &TCPTransport{p: p}, nil
}

// Close retires the transport. Safe to call more than once.
func (t *TCPTransport) Close() error {
	t.closed = true
	return nil
}

// InjectFrameFaults implements FrameFaultInjector: the next Exchange
// arms the serving side of every fact-carrying link with plan's drops,
// corruptions and dups for round. One-shot.
func (t *TCPTransport) InjectFrameFaults(round int, plan *FaultPlan) {
	t.havocRound, t.havocPlan = round, plan
}

// Exchange implements Transport: every shard's frames are published
// under this exchange's sequence number on one fragment server (the
// frame key carries the shard), and each destination pulls them shard by
// shard over one stream and merges in ascending shard order
// (MergeInbox). The server is closed and joined on return, success or
// failure, so nothing of an exchange outlives it.
func (t *TCPTransport) Exchange(round string, p int, shards []Shard) ([]*rel.Instance, []int, error) {
	if t.closed {
		return nil, nil, fmt.Errorf("mpc: exchange %q on a closed TCP transport", round)
	}
	if p != t.p {
		return nil, nil, fmt.Errorf("mpc: exchange %q routed for %d servers on a %d-server TCP transport", round, p, t.p)
	}
	havocRound, havocPlan := t.havocRound, t.havocPlan
	t.havocPlan = nil
	t.seq++
	seq := t.seq

	srv, err := NewFragServer()
	if err != nil {
		return nil, nil, fmt.Errorf("mpc: exchange %q: %w", round, err)
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		srv.Serve()
	}()
	// Deferred in this order so Close runs before the join it releases.
	defer serving.Wait()
	defer srv.Close() // the exchange is over either way; close is best-effort
	for w, sh := range shards {
		frames := ShardFrames(seq, w, sh, -1)
		if havocPlan != nil {
			for dst, f := range frames {
				// Physical faults hit only real network links that carry
				// facts, mirroring the virtual clock's accounting in
				// recovery.go (a plan implies one shard per source, so w
				// is the source).
				if w != dst && sh.Sent[dst] > 0 {
					srv.arm(keyOf(f), havocPlan.drops(havocRound, w, dst),
						havocPlan.corrupts(havocRound, w, dst), havocPlan.dups(havocRound, w, dst))
				}
			}
		}
		srv.Publish(frames)
	}

	inboxes := make([]*rel.Instance, p)
	received := make([]int, p)
	resolve := func() (string, error) { return srv.Addr(), nil }
	if err := sweep.Each(p, 0, func(dst int) (err error) {
		st := OpenStream(resolve, dst)
		defer st.Close() // the pulls are over either way; close is best-effort
		inboxes[dst], received[dst], err = MergeInbox(dst, len(shards), nil, func(w int) (Frame, error) {
			return st.Pull(seq, w)
		})
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("mpc: exchange %q: %w", round, err)
	}
	return inboxes, received, nil
}
