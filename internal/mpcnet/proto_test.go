package mpcnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// memConn is a connection over bytes: reads drain in and then see EOF,
// writes land in out, deadlines are no-ops.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(b []byte) (int, error)       { return c.in.Read(b) }
func (c *memConn) Write(b []byte) (int, error)      { return c.out.Write(b) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// controlFixture is a one-worker program's share and a fragment a
// result can carry.
func controlFixture() (share, fragment []byte) {
	s := rel.NewInstance()
	s.Add(rel.NewFact("R", 1, 2))
	s.Add(rel.NewFact("S", 2, 3))
	f := rel.NewInstance()
	f.Add(rel.NewFact("H", 1, 2, 3))
	return rel.EncodeInstance(s), rel.EncodeInstance(f)
}

// controlInput is the bytes a fuzz case sends: junk, then req as one
// JSON line, then — withFrame — payload as worker index's fragment
// frame, with bit flip−1 of the frame flipped when flip > 0.
func controlInput(junk []byte, req ctrlRequest, withFrame bool, payload []byte, flip uint32) []byte {
	var in bytes.Buffer
	in.Write(junk)
	var frag []byte
	if withFrame {
		frag = append([]byte{}, payload...) // non-nil: the frame is written
	}
	line, _ := json.Marshal(req)
	frameAt := in.Len() + len(line) + 1
	if err := writeMessage(&in, req, req.Index, frag); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	img := in.Bytes()
	if nbits := 8 * (len(img) - frameAt); withFrame && flip > 0 && nbits > 0 {
		bit := int(flip-1) % nbits
		img[frameAt+bit/8] ^= 1 << (bit % 8)
	}
	return img
}

// FuzzControlPlane feeds arbitrary bytes, a JSON request line and
// optionally a fragment frame to the coordinator of a one-worker,
// one-round program and holds its answer to what the bytes say. A
// first line longer than the line cap, or not a request, is dropped
// unanswered; a request for another worker, an unknown op, or a result
// whose frame fails mpc.ReadFrame or whose fragment does not decode, is
// refused; anything else is answered as its op — a hello with the share
// frame. Only an answered result reaches the barrier. Nothing panics,
// and the coordinator allocates in proportion to the bytes it was sent,
// never to a length they declare.
func FuzzControlPlane(f *testing.F) {
	share, fragment := controlFixture()
	lineCap := ctrlLineCap(1)
	f.Add([]byte(nil), "hello", 0, 0, false, []byte(nil), uint32(0))
	f.Add([]byte(nil), "lookup", 0, 0, false, []byte(nil), uint32(0))
	f.Add([]byte(nil), "lookup", 0, 3, false, []byte(nil), uint32(0))
	f.Add([]byte(nil), "result", 0, 0, true, fragment, uint32(0))
	f.Add([]byte(nil), "result", 0, 0, true, fragment, uint32(1))                 // bad magic
	f.Add([]byte(nil), "result", 0, 0, true, fragment, uint32(26*8+29+1))         // a payload length 2²⁹ longer
	f.Add([]byte(nil), "result", 0, 0, true, fragment, uint32(34*8+9+1))          // a payload bit
	f.Add([]byte(nil), "result", 0, 0, true, []byte("not a fragment"), uint32(0)) // a valid frame, no fragment
	f.Add([]byte(nil), "result", 0, 0, false, []byte(nil), uint32(0))             // no frame at all
	f.Add([]byte(nil), "result", 1, 0, true, fragment, uint32(0))                 // another worker's
	f.Add([]byte(nil), "bogus", 0, 0, false, []byte(nil), uint32(0))              // an unknown op
	f.Add(bytes.Repeat([]byte("x"), lineCap), "hello", 0, 0, false, []byte(nil), uint32(0))
	f.Add([]byte(`{"op":"hello","index":0}`+"\n"), "lookup", 0, 0, false, []byte(nil), uint32(0))
	f.Fuzz(func(t *testing.T, junk []byte, op string, index, peer int, withFrame bool, payload []byte, flip uint32) {
		req := ctrlRequest{Op: op, Index: index, Peer: peer, Addr: "127.0.0.1:1", Received: []int{len(payload)}, DeltaSent: []int{0}}
		input := controlInput(junk, req, withFrame, payload, flip)
		c := newCoordinator([][]byte{share}, 1)
		conn := &memConn{in: bytes.NewReader(input)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.serve(conn)
		runtime.ReadMemStats(&after)
		// What ReadFrame may allocate on a declared length alone (mpc's
		// payloadChunk), the line buffer, and a generous multiple of the
		// bytes actually sent.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+lineCap+16*len(input)+64<<10); alloc > bound {
			t.Fatalf("serving %d bytes allocated %d, bound %d", len(input), alloc, bound)
		}

		// The oracle reads the input as the protocol says.
		var got ctrlRequest
		end := bytes.IndexByte(input, '\n')
		if end < 0 || end+1 > lineCap || json.Unmarshal(input[:end+1], &got) != nil {
			if conn.out.Len() != 0 || len(c.results) != 0 {
				t.Fatalf("a first line that is over-long or no request was answered %q", conn.out.Bytes())
			}
			return
		}
		out := bufio.NewReader(&conn.out)
		var resp ctrlResponse
		if err := readLine(out, &resp); err != nil {
			t.Fatalf("request %+v unanswered: %v", got, err)
		}
		want := got.Index == 0
		switch got.Op {
		case "hello":
		case "lookup":
			want = want && got.Peer == 0
		case "result":
			frame, err := mpc.ReadFrame(bytes.NewReader(input[end+1:]))
			if want = want && err == nil && frame.Dst == 0; want {
				_, err = rel.DecodeInstance(frame.Payload)
				want = err == nil
			}
		default:
			want = false
		}
		if resp.OK != want || resp.OK == (resp.Err != "") {
			t.Fatalf("request %+v answered %+v, want ok=%v", got, resp, want)
		}
		if counted := len(c.results) == 1; counted != (resp.OK && got.Op == "result") {
			t.Fatalf("request %+v answered %+v, and the barrier counted %d results", got, resp, len(c.results))
		}
		if withFrame && flip > 0 && got.Op == "result" && len(junk) == 0 && len(c.results) != 0 {
			t.Fatal("a result with a flipped frame bit reached the barrier")
		}
		if resp.OK && got.Op == "hello" {
			if frame, err := readFragment(out, 0); err != nil || !bytes.Equal(frame, share) {
				t.Fatalf("hello answered without the share frame (err %v)", err)
			}
		}
	})
}

// TestControlPlaneRefusesOverlongLinesAndBadFrames drives the
// coordinator of a real listener: a line one byte over the cap, sent in
// full, is dropped without an answer; a result whose frame carries one
// flipped bit is refused and never counted; the same result intact is
// counted.
func TestControlPlaneRefusesOverlongLinesAndBadFrames(t *testing.T) {
	share, fragment := controlFixture()
	c := newCoordinator([][]byte{share}, 1)
	if err := c.listen(); err != nil {
		t.Fatal(err)
	}
	defer c.close()
	send := func(input []byte) string {
		conn, err := net.Dial("tcp", c.addr())
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan struct{})
		go func() {
			defer close(written)
			conn.Write(input) // the coordinator may hang up before reading it all
		}()
		answer, _ := io.ReadAll(conn)
		conn.Close()
		<-written
		return string(answer)
	}
	long := append(bytes.Repeat([]byte(" "), ctrlLineCap(1)), `{"op":"hello","index":0}`+"\n"...)
	if answer := send(long); answer != "" {
		t.Errorf("an over-long line was answered %q", answer)
	}
	result := ctrlRequest{Op: "result", Index: 0, Received: []int{1}, DeltaSent: []int{0}}
	if answer := send(controlInput(nil, result, true, fragment, 34*8+1+1)); !strings.Contains(answer, "unreadable fragment frame") {
		t.Errorf("a result with a flipped bit was answered %q", answer)
	}
	c.mu.Lock()
	counted := len(c.results)
	c.mu.Unlock()
	if counted != 0 {
		t.Fatal("a refused result reached the barrier")
	}
	if answer := send(controlInput(nil, result, true, fragment, 0)); !strings.HasPrefix(answer, `{"ok":true}`) {
		t.Errorf("an intact result was answered %q", answer)
	}
}

// helloAnswerInput is the bytes a coordinator sends to answer a hello:
// resp as one JSON line, padded with pad spaces before its newline,
// then — withFrame — payload as worker dst's share frame.
func helloAnswerInput(resp ctrlResponse, pad int, withFrame bool, dst int, payload []byte) []byte {
	line, err := json.Marshal(resp)
	if err != nil {
		panic(err) // a ctrlResponse always marshals
	}
	in := bytes.NewBuffer(append(append(line, bytes.Repeat([]byte(" "), pad)...), '\n'))
	if withFrame {
		if err := mpc.WriteFrame(in, mpc.Frame{Dst: uint32(dst), Payload: payload}); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
	}
	return in.Bytes()
}

// TestHelloAnswerFitsAnyP: the answer to a hello at p = 1024 whose
// addresses all have the longest length the cap allows for is read
// whole, padded to exactly helloAnswerCap(p) bytes too; one byte more
// is refused, as is a list one address short.
func TestHelloAnswerFitsAnyP(t *testing.T) {
	const p = 1024
	share, _ := controlFixture()
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = strings.Repeat("h", maxAddrLen-len(":65535")) + ":65535"
	}
	resp := ctrlResponse{OK: true, Addrs: addrs}
	line, _ := json.Marshal(resp)
	room := helloAnswerCap(p) - len(line) - 1
	if room < 0 {
		t.Fatalf("a %d-byte answer line exceeds helloAnswerCap(%d) = %d", len(line)+1, p, helloAnswerCap(p))
	}
	for _, pad := range []int{0, room} {
		got, gotShare, err := readHelloAnswer(bytes.NewReader(helloAnswerInput(resp, pad, true, 3, share)), 3, p)
		if err != nil || len(got) != p || got[p-1] != addrs[p-1] || !bytes.Equal(gotShare, share) {
			t.Fatalf("an answer line padded by %d bytes to %d: %d addresses, err %v", pad, len(line)+pad+1, len(got), err)
		}
	}
	if _, _, err := readHelloAnswer(bytes.NewReader(helloAnswerInput(resp, room+1, true, 3, share)), 3, p); !errors.Is(err, bufio.ErrBufferFull) {
		t.Errorf("an answer line one byte over the cap was read (err %v)", err)
	}
	short := ctrlResponse{OK: true, Addrs: addrs[1:]}
	if _, _, err := readHelloAnswer(bytes.NewReader(helloAnswerInput(short, 0, true, 3, share)), 3, p); err == nil || !strings.Contains(err.Error(), "lists 1023 addresses, want 1024") {
		t.Errorf("an answer listing p−1 addresses was read (err %v)", err)
	}
}

// FuzzHelloAnswer feeds arbitrary bytes to a worker's read of its
// hello's answer, worker index of a p-worker run. The read returns an
// error or exactly what the bytes say: an ok line of at most
// helloAnswerCap(p) bytes listing p addresses, then a frame for the
// worker that mpc.ReadFrame accepts, whose payload is the share. A list
// of any other length is an error. Nothing panics, and the read
// allocates in proportion to the bytes it was sent, never to a length
// they declare.
func FuzzHelloAnswer(f *testing.F) {
	share, _ := controlFixture()
	four := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}
	ok := ctrlResponse{OK: true, Addrs: four}
	f.Add(helloAnswerInput(ok, 0, true, 2, share), uint8(4), uint8(2))
	f.Add(helloAnswerInput(ok, 0, true, 1, share), uint8(4), uint8(2))                                             // another worker's share
	f.Add(helloAnswerInput(ok, 0, false, 2, nil), uint8(4), uint8(2))                                              // no frame
	f.Add(helloAnswerInput(ok, 0, true, 2, share), uint8(3), uint8(2))                                             // four addresses at p = 3
	f.Add(helloAnswerInput(ctrlResponse{OK: true, Addrs: four[:3]}, 0, true, 2, share), uint8(4), uint8(2))        // three at p = 4
	f.Add(helloAnswerInput(ctrlResponse{Err: "mpcnet: coordinator closed"}, 0, false, 0, nil), uint8(4), uint8(2)) // a refusal
	f.Add(helloAnswerInput(ctrlResponse{Addrs: four}, 0, true, 2, share), uint8(4), uint8(2))                      // not ok
	f.Add(helloAnswerInput(ok, helloAnswerCap(4), true, 2, share), uint8(4), uint8(2))                             // over-long
	f.Add([]byte("{\"ok\":true}\n"), uint8(1), uint8(0))
	f.Add([]byte(nil), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, answer []byte, np, nindex uint8) {
		p := 1 + int(np)%16
		index := int(nindex) % p
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addrs, got, err := readHelloAnswer(bytes.NewReader(answer), index, p)
		runtime.ReadMemStats(&after)
		// The line buffer, what ReadFrame may allocate on a declared
		// length alone (mpc's payloadChunk), and a generous multiple of
		// the bytes actually sent.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(helloAnswerCap(p)+1<<20+16*len(answer)+64<<10); alloc > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(answer), alloc, bound)
		}

		// The oracle reads the answer as the protocol says.
		var resp ctrlResponse
		end := bytes.IndexByte(answer, '\n')
		want := end >= 0 && end+1 <= helloAnswerCap(p) && json.Unmarshal(answer[:end+1], &resp) == nil &&
			resp.OK && resp.Err == "" && len(resp.Addrs) == p
		var frame mpc.Frame
		if want {
			var ferr error
			frame, ferr = mpc.ReadFrame(bytes.NewReader(answer[end+1:]))
			want = ferr == nil && int(frame.Dst) == index
		}
		if (err == nil) != want {
			t.Fatalf("answer %q at p=%d, index %d: err %v, want success %v", answer, p, index, err, want)
		}
		if err != nil {
			return
		}
		if len(addrs) != p || !slices.Equal(addrs, resp.Addrs) || !bytes.Equal(got, frame.Payload) {
			t.Fatalf("answer %q read as %q and a %d-byte share", answer, addrs, len(got))
		}
	})
}

// FuzzCtrlAnswer feeds arbitrary bytes to a worker's read of a lookup's
// or a result's answer. The read returns what the bytes say: a first
// line not ended within ctrlLineCap(0) bytes is an error, and one with
// no newline in that room is refused unread (bufio.ErrBufferFull); a
// line that carries an err is an error; any other line is decoded into
// the ctrlResponse, exactly as encoding/json reads it. Nothing panics,
// and the read allocates in proportion to at most ctrlLineCap(0) bytes,
// however many it was sent.
func FuzzCtrlAnswer(f *testing.F) {
	share, fragment := controlFixture()
	c := newCoordinator([][]byte{share}, 1)
	answer := func(req ctrlRequest, frag []byte) []byte {
		conn := &memConn{in: bytes.NewReader(controlInput(nil, req, frag != nil, frag, 0))}
		c.serve(conn)
		return conn.out.Bytes()
	}
	answer(ctrlRequest{Op: "hello", Index: 0, Addr: "127.0.0.1:4242"}, nil)
	lookup := answer(ctrlRequest{Op: "lookup", Index: 0, Peer: 0}, nil)
	if !bytes.Contains(lookup, []byte(`"addr":"127.0.0.1:4242"`)) {
		f.Fatalf("the lookup answer %q does not name the registered address", lookup)
	}
	result := answer(ctrlRequest{Op: "result", Index: 0, Received: []int{2}, DeltaSent: []int{0}}, fragment)
	refusal := answer(ctrlRequest{Op: "lookup", Index: 0, Peer: 3}, nil)
	if !bytes.HasPrefix(result, []byte(`{"ok":true}`)) || !bytes.Contains(refusal, []byte(`"err":`)) {
		f.Fatalf("the result answer %q is no admission, or the refusal %q none", result, refusal)
	}
	f.Add(lookup)
	f.Add(result)
	f.Add(refusal)
	f.Add(helloAnswerInput(ctrlResponse{OK: true, Addr: "127.0.0.1:4242"}, ctrlLineCap(0), false, 0, nil))
	f.Add(bytes.Repeat([]byte(" "), 64*ctrlLineCap(0))) // no line at all, far over the cap
	f.Add([]byte("null\n"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, answer []byte) {
		lineCap := ctrlLineCap(0)
		var before, after runtime.MemStats
		var got ctrlResponse
		runtime.ReadMemStats(&before)
		err := readAnswer(bytes.NewReader(answer), &got)
		runtime.ReadMemStats(&after)
		// The line buffer and a generous multiple of the bytes it can
		// hold, never of the bytes sent beyond them.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(lineCap+16*min(len(answer), lineCap)+64<<10); alloc > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(answer), alloc, bound)
		}

		// The oracle reads the answer as the protocol says.
		end := bytes.IndexByte(answer, '\n')
		if end < 0 || end+1 > lineCap {
			if err == nil {
				t.Fatalf("an answer with no line in %d bytes was read as %+v", lineCap, got)
			}
			if len(answer) >= lineCap && bytes.IndexByte(answer[:lineCap], '\n') < 0 && !errors.Is(err, bufio.ErrBufferFull) {
				t.Fatalf("an over-long answer line failed with %v, want bufio.ErrBufferFull", err)
			}
			return
		}
		var want ctrlResponse
		switch {
		case json.Unmarshal(answer[:end+1], &want) != nil:
			if err == nil {
				t.Fatalf("an answer line that is no ctrlResponse was read as %+v", got)
			}
		case want.Err != "":
			if err == nil || !strings.Contains(err.Error(), "coordinator refused") {
				t.Fatalf("a refusal %q read with err %v", want.Err, err)
			}
		case err != nil:
			t.Fatalf("answer %q: %v", answer[:end+1], err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("answer %q read as %+v, want %+v", answer[:end+1], got, want)
		}
	})
}
