package mpc

import (
	"bytes"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

func testFrame() Frame {
	return Frame{
		Seq:     7,
		Shard:   2,
		Dst:     1,
		Sent:    3,
		Payload: rel.EncodeInstance(testInstance()),
	}
}

// testInstance is testFrame's fragment.
func testInstance() *rel.Instance {
	return rel.MustInstance(rel.NewDict(), "R(a,b)", "R(c,d)", "S(x,y,z)")
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.Shard != f.Shard || got.Dst != f.Dst || got.Sent != f.Sent {
		t.Errorf("header fields diverged: %+v vs %+v", got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("payload diverged over the wire")
	}
}

// TestFrameRejectsEveryBitFlip: flipping ANY single bit of a frame's
// wire image must make ReadFrame fail — magic and version flips fail
// structurally, everything else fails the CRC-32C, which detects all
// burst errors up to 32 bits. No flip may panic or be silently
// accepted.
func TestFrameRejectsEveryBitFlip(t *testing.T) {
	img := encodeFrame(testFrame())
	for pos := range img {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), img...)
			mut[pos] ^= 1 << bit
			if _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
}

func TestFrameChecksumErrorIsNamed(t *testing.T) {
	img := encodeFrame(testFrame())
	img[len(img)-1] ^= 0x01 // last payload byte: structural parse succeeds, CRC must not
	_, err := ReadFrame(bytes.NewReader(img))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

// TestTCPExchangeAbsorbsCorruptFrames: armed corruption havoc ships
// bit-flipped frames ahead of the clean one; the receiver's checksum
// rejects them and the exchange still delivers the exact outbox.
func TestTCPExchangeAbsorbsCorruptFrames(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	d := rel.NewDict()
	out := rel.MustInstance(d, "R(a,b)", "R(c,d)")
	shards := make([]Shard, 2)
	for w := range shards {
		shards[w].Outs = make([]*rel.Instance, 2)
		shards[w].Sent = make([]int, 2)
	}
	shards[0].Outs[1] = out
	shards[0].Sent[1] = out.Len()

	plan := NewFaultPlan().AddCorrupt(0, 0, 1, 3).AddDrop(0, 0, 1, 2)
	tr.InjectFrameFaults(0, plan)
	inboxes, received, err := tr.Exchange("corrupt", 2, shards)
	if err != nil {
		t.Fatalf("exchange under corruption havoc: %v", err)
	}
	if received[1] != out.Len() {
		t.Errorf("received[1] = %d, want %d", received[1], out.Len())
	}
	if !inboxes[1].Equal(out) {
		t.Errorf("inbox diverged under corruption havoc:\n got %s\nwant %s", inboxes[1], out)
	}
	if inboxes[0].Len() != 0 {
		t.Errorf("server 0 received phantom facts: %s", inboxes[0])
	}
}

// BenchmarkExchangeTCP is one 1000-fact exchange among p = 4 servers
// over loopback: one fragment server and p streams opened, p² frames
// published, pulled and merged, everything closed and joined.
func BenchmarkExchangeTCP(b *testing.B) {
	const p = 4
	round := Round{Name: "bench", Route: HashOn(p, []int{1}, 7)}
	shards := make([]Shard, p)
	for src := range shards {
		local := rel.NewInstance()
		for k := src; k < 1000; k += p {
			local.Add(rel.NewFact("R", rel.Value(k), rel.Value(k*31+src)))
		}
		sh, err := RouteSource(round, p, src, local)
		if err != nil {
			b.Fatal(err)
		}
		shards[src] = sh
	}
	tr, err := NewTCPTransport(p)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, received, err := tr.Exchange(round.Name, p, shards)
		if err != nil {
			b.Fatal(err)
		}
		if n := received[0] + received[1] + received[2] + received[3]; n != 1000 {
			b.Fatalf("exchange delivered %d facts, want 1000", n)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, which must refuse
// what it cannot read with an error, never a panic. A frame it accepts
// is the bytes it came from: WriteFrame writes them again, byte for
// byte. And the checksum is load-bearing: that image with any one byte
// of its checksum flipped is refused.
func FuzzReadFrame(f *testing.F) {
	img := encodeFrame(testFrame())
	f.Add(img)
	f.Add(img[:frameHeaderLen])
	f.Add(img[:len(img)-1])
	f.Add(encodeFrame(Frame{}))
	f.Add(append(encodeFrame(Frame{Seq: 1}), 0xff))
	f.Add([]byte("FPCM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, got); err != nil {
			t.Fatal(err)
		}
		again := buf.Bytes()
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("ReadFrame accepted %x, WriteFrame writes it as %x", data[:len(again)], again)
		}
		for i := frameHeaderLen - 4; i < frameHeaderLen; i++ {
			mut := append([]byte(nil), again...)
			mut[i] ^= 0xff
			if _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("a frame whose checksum byte %d is flipped was accepted", i)
			}
		}
	})
}
