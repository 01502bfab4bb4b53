package mpcnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"time"

	"mpclogic/internal/mpc"
)

// Control plane: workers talk to the coordinator over one-shot TCP
// connections carrying a single JSON request line and a single JSON
// response line. Three operations exist — hello (register a worker's
// data address), lookup (resolve a peer's current data address, which
// changes when a peer is respawned), and result (deliver the worker's
// final fragment and per-round accounting; the response is held until
// every worker has). A fault-free run costs each worker one hello, one
// answered lookup per peer and one result, whatever the number of rounds.
//
// The data plane is mpc's (internal/mpc/plane.go): each worker runs an
// mpc.FragServer, publishes its shard's frames under the round index
// as sequence number, and pulls its peers' over one mpc.Stream per peer
// kept for the whole run, which resolves the peer through lookup before
// every dial — the first, and the redial after a stream breaks.

// ioTimeout bounds each control-plane socket operation. A variable only
// so tests can shorten it.
var ioTimeout = mpc.IOTimeout

// ctrlRequest is one control-plane request.
type ctrlRequest struct {
	Op    string `json:"op"` // hello | lookup | result
	Index int    `json:"index"`
	Addr  string `json:"addr,omitempty"` // hello: the worker's data address
	Peer  int    `json:"peer,omitempty"` // lookup: whose address

	// result payload: the worker's per-round loads, per-round Δ send
	// counts, and its final local instance (canonical wire encoding).
	Received  []int  `json:"received,omitempty"`
	DeltaSent []int  `json:"deltaSent,omitempty"`
	Fragment  []byte `json:"fragment,omitempty"`
}

// ctrlResponse is one control-plane response.
type ctrlResponse struct {
	OK   bool   `json:"ok"`
	Addr string `json:"addr,omitempty"` // lookup: "" when not yet registered
	Err  string `json:"err,omitempty"`
}

// roundtrip dials addr, sends req, and reads the response. Every step
// is bounded by ioTimeout but one: the wait for a result's response,
// which the coordinator holds until the slowest worker has reported —
// and finishing more than one I/O bound after a peer is not a failure.
// That wait still ends: the coordinator's fail and close release every
// held response, and its death resets the socket.
func roundtrip(addr string, req ctrlRequest) (ctrlResponse, error) {
	conn, err := mpc.Dial(addr, req.Index)
	if err != nil {
		return ctrlResponse{}, fmt.Errorf("mpcnet: dialing coordinator: %w", err)
	}
	defer conn.Close() // one request per connection; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return ctrlResponse{}, err
	}
	enc, err := json.Marshal(req)
	if err != nil {
		return ctrlResponse{}, err
	}
	if _, err := conn.Write(append(enc, '\n')); err != nil {
		return ctrlResponse{}, fmt.Errorf("mpcnet: sending %s: %w", req.Op, err)
	}
	if req.Op == "result" {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return ctrlResponse{}, err
		}
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return ctrlResponse{}, fmt.Errorf("mpcnet: reading %s response: %w", req.Op, err)
	}
	var resp ctrlResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return ctrlResponse{}, fmt.Errorf("mpcnet: decoding %s response: %w", req.Op, err)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("mpcnet: coordinator rejected %s: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// peerAddr resolves peer's current data address for worker index: the
// resolver a stream consults before every dial.
func peerAddr(coordAddr string, index, peer int) func() (string, error) {
	return func() (string, error) {
		resp, err := roundtrip(coordAddr, ctrlRequest{Op: "lookup", Index: index, Peer: peer})
		if err != nil {
			return "", err
		}
		if resp.Addr == "" {
			return "", fmt.Errorf("mpcnet: peer %d not registered yet", peer)
		}
		return resp.Addr, nil
	}
}
