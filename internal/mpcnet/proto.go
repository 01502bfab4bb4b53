package mpcnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mpclogic/internal/mpc"
)

// Control plane: workers talk to the coordinator over one-shot TCP
// connections carrying a single JSON request line and a single JSON
// response line. Three operations exist — hello (register a worker's
// data address; the answer hands the worker its share of the input and
// every worker's data address), lookup (resolve a peer's current data
// address, which changes when a peer is respawned), and result (deliver
// the worker's final fragment and per-round accounting). A run has two
// barriers, its start and its end: the coordinator holds every hello's
// answer until all p workers have said hello, and every result's until
// all p have reported. A fault-free run costs each worker one hello and
// one result, whatever the number of rounds; a lookup is made only to
// redial a peer after a drop.
//
// Two messages carry a fragment, as one mpc frame right after their
// line (mpc.WriteFrame/ReadFrame: the data plane's magic, CRC-32C and
// payload cap), its Dst naming the worker: a hello's answer carries the
// worker's share, a result request its final fragment. Lines therefore
// carry only ints and addresses, and are read through a buffer of
// ctrlLineCap bytes (helloAnswerCap for a hello's answer, which lists p
// addresses): a longer line is dropped, never buffered whole.
//
// The data plane is mpc's (internal/mpc/plane.go): each worker runs an
// mpc.FragServer, publishes its shard's frames under the round index
// as sequence number, and pulls its peers' over one mpc.Stream per peer
// kept for the whole run. A stream's first dial goes to the address the
// hello answered with; only a redial, after the stream breaks, asks the
// coordinator's lookup.

// ioTimeout bounds each control-plane socket operation. A variable only
// so tests can shorten it.
var ioTimeout = mpc.IOTimeout

// ctrlLineBase is a control line's room beyond a result's per-round
// accounting or a hello answer's addresses — op, index, address, keys,
// an error text — and ctrlRoundBytes that accounting's room per round:
// two ints of at most 20 characters, each with its separator.
const (
	ctrlLineBase   = 4096
	ctrlRoundBytes = 2 * 21
)

// ctrlLineCap bounds one control line of a program of rounds rounds:
// the longest legitimate request is a result's, O(rounds) ints.
func ctrlLineCap(rounds int) int { return ctrlLineBase + rounds*ctrlRoundBytes }

// maxAddrLen is the longest data address a hello answer is sized for:
// a host of up to 255 bytes (a DNS name, or a bracketed IPv6 literal
// with its zone), a colon and a port of five digits. ctrlAddrBytes is
// one address's room in the answer's list: the address, its two quotes
// and a separator.
const (
	maxAddrLen    = 255 + 1 + 5
	ctrlAddrBytes = maxAddrLen + 3
)

// helloAnswerCap bounds the answer line of a hello in a p-worker run:
// the longest legitimate one lists p addresses of maxAddrLen bytes.
func helloAnswerCap(p int) int { return ctrlLineBase + p*ctrlAddrBytes }

// ctrlRequest is one control-plane request.
type ctrlRequest struct {
	Op    string `json:"op"` // hello | lookup | result
	Index int    `json:"index"`
	Addr  string `json:"addr,omitempty"` // hello: the worker's data address
	Peer  int    `json:"peer,omitempty"` // lookup: whose address

	// result payload: the worker's per-round loads and per-round Δ send
	// counts; its final fragment follows the line as a frame.
	Received  []int `json:"received,omitempty"`
	DeltaSent []int `json:"deltaSent,omitempty"`
}

// ctrlResponse is one control-plane response.
type ctrlResponse struct {
	OK    bool     `json:"ok"`
	Addr  string   `json:"addr,omitempty"`  // lookup: the peer's last registered address
	Addrs []string `json:"addrs,omitempty"` // hello: every worker's data address, by index
	Err   string   `json:"err,omitempty"`
}

// writeMessage writes msg as one JSON line and, when frag is not nil,
// frag (an encoded instance) as worker index's fragment frame after it.
func writeMessage(w io.Writer, msg any, index int, frag []byte) error {
	enc, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(enc, '\n')); err != nil {
		return err
	}
	if frag == nil {
		return nil
	}
	return mpc.WriteFrame(w, mpc.Frame{Dst: uint32(index), Payload: frag})
}

// readLine decodes one JSON line into msg. A line longer than rd's
// buffer is an error (bufio.ErrBufferFull), never read whole.
func readLine(rd *bufio.Reader, msg any) error {
	line, err := rd.ReadSlice('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, msg)
}

// readFragment reads worker index's fragment frame, with every check
// mpc.ReadFrame makes, and returns its payload.
func readFragment(r io.Reader, index int) ([]byte, error) {
	f, err := mpc.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if int(f.Dst) != index {
		return nil, fmt.Errorf("mpcnet: fragment frame for worker %d, want %d", f.Dst, index)
	}
	return f.Payload, nil
}

// roundtrip dials addr, sends req — a result followed by frag, the
// worker's final fragment — and hands the connection to read for the
// answer. Every step is bounded by ioTimeout but one: the wait for a
// hello's or a result's answer, which the coordinator holds at a
// barrier until the slowest worker has said hello or reported — and
// starting or finishing more than one I/O bound after a peer is not a
// failure. That wait still ends: the coordinator's fail and close
// release every held answer, and its death resets the socket.
func roundtrip(addr string, req ctrlRequest, frag []byte, read func(io.Reader) error) error {
	conn, err := mpc.Dial(addr, req.Index)
	if err != nil {
		return fmt.Errorf("mpcnet: dialing coordinator: %w", err)
	}
	defer conn.Close() // one request per connection; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	if err := writeMessage(conn, req, req.Index, frag); err != nil {
		return fmt.Errorf("mpcnet: sending %s: %w", req.Op, err)
	}
	if req.Op != "lookup" {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return err
		}
	}
	if err := read(conn); err != nil {
		return fmt.Errorf("mpcnet: reading %s answer: %w", req.Op, err)
	}
	return nil
}

// readAnswer reads the one-line answer to a lookup or a result into
// resp; an answer carrying an error is the coordinator's refusal.
func readAnswer(r io.Reader, resp *ctrlResponse) error {
	if err := readLine(bufio.NewReaderSize(r, ctrlLineCap(0)), resp); err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("coordinator refused: %q", resp.Err)
	}
	return nil
}

// readHelloAnswer reads the answer to worker index's hello in a p-worker
// run: a line listing p data addresses, read through a buffer of
// helloAnswerCap(p) bytes, then index's share as a fragment frame. A
// refusal, a list of another length, or a frame ReadFrame rejects is an
// error.
func readHelloAnswer(r io.Reader, index, p int) (addrs []string, share []byte, err error) {
	rd := bufio.NewReaderSize(r, helloAnswerCap(p))
	var resp ctrlResponse
	if err := readLine(rd, &resp); err != nil {
		return nil, nil, err
	}
	if resp.Err != "" || !resp.OK {
		return nil, nil, fmt.Errorf("coordinator refused: %q", resp.Err)
	}
	if len(resp.Addrs) != p {
		return nil, nil, fmt.Errorf("answer lists %d addresses, want %d", len(resp.Addrs), p)
	}
	if share, err = readFragment(rd, index); err != nil {
		return nil, nil, fmt.Errorf("worker %d's share: %w", index, err)
	}
	return resp.Addrs, share, nil
}

// hello registers worker index's data address addr with the coordinator
// of a p-worker run and returns its answer: every worker's data address,
// by index, and index's share of the input.
func hello(coordAddr string, index, p int, addr string) (addrs []string, share []byte, err error) {
	err = roundtrip(coordAddr, ctrlRequest{Op: "hello", Index: index, Addr: addr}, nil, func(r io.Reader) (err error) {
		addrs, share, err = readHelloAnswer(r, index, p)
		return err
	})
	return addrs, share, err
}

// report delivers worker index's result: its per-round accounting and
// frag, its final fragment. It returns once every worker has reported.
func report(coordAddr string, index int, received, deltaSent []int, frag []byte) error {
	req := ctrlRequest{Op: "result", Index: index, Received: received, DeltaSent: deltaSent}
	return roundtrip(coordAddr, req, frag, func(r io.Reader) error { return readAnswer(r, &ctrlResponse{}) })
}

// peerAddr resolves peer's data address for worker index's stream: at
// the first dial the address first, which the hello answered with, and
// at every redial — after a drop, when the peer may have been respawned
// under a new address — the coordinator's lookup.
func peerAddr(coordAddr string, index, peer int, first string) func() (string, error) {
	return func() (string, error) {
		if addr := first; addr != "" {
			first = ""
			return addr, nil
		}
		var resp ctrlResponse
		req := ctrlRequest{Op: "lookup", Index: index, Peer: peer}
		if err := roundtrip(coordAddr, req, nil, func(r io.Reader) error { return readAnswer(r, &resp) }); err != nil {
			return "", err
		}
		if resp.Addr == "" {
			return "", fmt.Errorf("mpcnet: peer %d has no address", peer)
		}
		return resp.Addr, nil
	}
}
