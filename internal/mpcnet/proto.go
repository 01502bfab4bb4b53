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
// data address; the answer hands the worker its share of the input),
// lookup (resolve a peer's current data address, which changes when a
// peer is respawned), and result (deliver the worker's final fragment
// and per-round accounting; the response is held until every worker
// has). A fault-free run costs each worker one hello, one answered
// lookup per peer and one result, whatever the number of rounds.
//
// Two messages carry a fragment, as one mpc frame right after their
// line (mpc.WriteFrame/ReadFrame: the data plane's magic, CRC-32C and
// payload cap), its Dst naming the worker: a hello's answer carries the
// worker's share, a result request its final fragment. Lines therefore
// carry only ints and addresses, and are read through a buffer of
// ctrlLineCap bytes: a longer line is dropped, never buffered whole.
//
// The data plane is mpc's (internal/mpc/plane.go): each worker runs an
// mpc.FragServer, publishes its shard's frames under the round index
// as sequence number, and pulls its peers' over one mpc.Stream per peer
// kept for the whole run, which resolves the peer through lookup before
// every dial — the first, and the redial after a stream breaks.

// ioTimeout bounds each control-plane socket operation. A variable only
// so tests can shorten it.
var ioTimeout = mpc.IOTimeout

// ctrlLineBase is a control line's room beyond a result's per-round
// accounting — op, index, address, keys, an error text — and
// ctrlRoundBytes that accounting's room per round: two ints of at most
// 20 characters, each with its separator.
const (
	ctrlLineBase   = 4096
	ctrlRoundBytes = 2 * 21
)

// ctrlLineCap bounds one control line of a program of rounds rounds:
// the longest legitimate line is a result's, O(rounds) ints.
func ctrlLineCap(rounds int) int { return ctrlLineBase + rounds*ctrlRoundBytes }

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
	OK   bool   `json:"ok"`
	Addr string `json:"addr,omitempty"` // lookup: "" when not yet registered
	Err  string `json:"err,omitempty"`
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
// worker's final fragment — and reads the response, returning the share
// that follows a hello's. Every step is bounded by ioTimeout but one:
// the wait for a result's response, which the coordinator holds until
// the slowest worker has reported — and finishing more than one I/O
// bound after a peer is not a failure. That wait still ends: the
// coordinator's fail and close release every held response, and its
// death resets the socket.
func roundtrip(addr string, req ctrlRequest, frag []byte) (ctrlResponse, []byte, error) {
	conn, err := mpc.Dial(addr, req.Index)
	if err != nil {
		return ctrlResponse{}, nil, fmt.Errorf("mpcnet: dialing coordinator: %w", err)
	}
	defer conn.Close() // one request per connection; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return ctrlResponse{}, nil, err
	}
	if err := writeMessage(conn, req, req.Index, frag); err != nil {
		return ctrlResponse{}, nil, fmt.Errorf("mpcnet: sending %s: %w", req.Op, err)
	}
	if req.Op == "result" {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return ctrlResponse{}, nil, err
		}
	}
	rd := bufio.NewReaderSize(conn, ctrlLineCap(0))
	var resp ctrlResponse
	if err := readLine(rd, &resp); err != nil {
		return ctrlResponse{}, nil, fmt.Errorf("mpcnet: reading %s response: %w", req.Op, err)
	}
	if resp.Err != "" {
		return resp, nil, fmt.Errorf("mpcnet: coordinator rejected %s: %s", req.Op, resp.Err)
	}
	if req.Op != "hello" {
		return resp, nil, nil
	}
	share, err := readFragment(rd, req.Index)
	if err != nil {
		return ctrlResponse{}, nil, fmt.Errorf("mpcnet: reading worker %d's share: %w", req.Index, err)
	}
	return resp, share, nil
}

// peerAddr resolves peer's current data address for worker index: the
// resolver a stream consults before every dial.
func peerAddr(coordAddr string, index, peer int) func() (string, error) {
	return func() (string, error) {
		resp, _, err := roundtrip(coordAddr, ctrlRequest{Op: "lookup", Index: index, Peer: peer}, nil)
		if err != nil {
			return "", err
		}
		if resp.Addr == "" {
			return "", fmt.Errorf("mpcnet: peer %d not registered yet", peer)
		}
		return resp.Addr, nil
	}
}
