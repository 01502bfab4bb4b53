package mpcnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// WorkerConfig configures one worker process (or, in tests, one
// worker goroutine).
type WorkerConfig struct {
	// Index is the simulated server this worker plays, 0 ≤ Index < p.
	Index int
	// Spec is the program; every worker of a run gets the identical spec.
	Spec ProgramSpec
	// CoordAddr is the coordinator's control-plane address.
	CoordAddr string
	// CkptDir is where the worker's two checkpoint slots live. Shared
	// by all incarnations of this worker; distinct workers may share it
	// because file names embed the index.
	CkptDir string
	// FailRound, when ≥ 0, kills the process with SIGKILL right after
	// the checkpoint for that round is written — the crash the recovery
	// path is tested against. The coordinator arms it only on a
	// worker's first incarnation, so the respawn runs to completion.
	FailRound int
}

// cursor is the meta section of a worker's checkpoint image, written at
// the START of each round: the round about to run and the logical
// accounting accumulated before it. The image's one fragment is the
// worker's local instance at that point — together, everything needed
// to re-execute from that round.
type cursor struct {
	Round     int   `json:"round"`
	Received  []int `json:"received"`
	DeltaSent []int `json:"deltaSent"`
}

// ckptPath is the slot worker index's round-r checkpoint lives in:
// r mod 2. Landing round r therefore replaces round r−2, and a worker
// holds exactly its two newest checkpoints with nothing to collect.
// Distinct workers may share dir because the name embeds the index.
func ckptPath(dir string, index, round int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d.ckpt%d", index, round%2))
}

// writeCheckpoint lands the round's image in its slot atomically
// (policy.SaveStore), so a crash mid-write leaves both slots intact.
func writeCheckpoint(dir string, index int, cur cursor, local *rel.Instance) error {
	meta, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	store := policy.NewStableStore([]*rel.Instance{local}).WithMeta(meta)
	if err := policy.SaveStore(ckptPath(dir, index, cur.Round), store); err != nil {
		return fmt.Errorf("mpcnet: writing checkpoint %d: %w", cur.Round, err)
	}
	return nil
}

func readCheckpoint(path string) (*cursor, *rel.Instance, error) {
	store, err := policy.LoadStore(path)
	if err != nil {
		return nil, nil, err
	}
	if store.NumNodes() != 1 {
		return nil, nil, fmt.Errorf("mpcnet: checkpoint %s holds %d fragments, want 1", path, store.NumNodes())
	}
	var cur cursor
	if err := json.Unmarshal(store.Meta(), &cur); err != nil {
		return nil, nil, fmt.Errorf("mpcnet: decoding checkpoint %s cursor: %w", path, err)
	}
	return &cur, store.Reload(0), nil
}

// resumeCheckpoint returns the checkpoint a fresh incarnation of worker
// index re-executes from: the older of its slots, which hold rounds
// latest−1 and latest (round 0 alone before round 1 has landed) — or a
// nil cursor when neither slot exists (fresh start). A slot that exists
// and does not load is an error, never a reason to start elsewhere.
func resumeCheckpoint(dir string, index int) (cur *cursor, state *rel.Instance, _ error) {
	for slot := 0; slot < 2; slot++ {
		c, st, err := readCheckpoint(ckptPath(dir, index, slot))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		if cur == nil || c.Round < cur.Round {
			cur, state = c, st
		}
	}
	return cur, state, nil
}

// crash is the failpoint's death: die hard, no deferred cleanup,
// exactly like a lost machine. A variable only so tests can end a
// goroutine worker instead of the test process.
var crash = func() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL) //lint:allow error-discard the process is gone either way
}

// RunWorker executes one worker's part of the program — from the share
// of the input its hello is answered with, on rounds built from the
// plan (the workload is generated only for a row that reads it) — every
// step of a round being mpc's own, for one server: route this server's
// facts (mpc.RouteSource), publish the shard's frames, pull every peer's and
// merge in shard order (mpc.MergeInbox over one mpc.Stream per peer),
// adopt residents, compute; then deliver the final fragment and
// per-round accounting to the coordinator. The p−1 streams are opened
// for the run, not the round: a fault-free run dials each peer once. Each
// round's requests are posted on every stream before the first answer
// is read, so peers' answers are in flight while earlier ones decode.
//
// Recovery: a fresh incarnation resumes from max(0, latest-1) where
// latest is the highest checkpoint on disk — the one-round rewind of
// the data plane's retention invariant (internal/mpc/plane.go), which
// is also why two checkpoint slots and two published rounds are all a
// worker keeps. Re-executing from latest-1 re-publishes (byte-identical,
// by determinism) everything any peer could still ask for, and the
// re-pulls succeed because peers retain the same two rounds.
func RunWorker(cfg WorkerConfig) error {
	built, _, err := elaborate(cfg.Spec)
	if err != nil {
		return err
	}
	p := built.P
	if cfg.Index < 0 || cfg.Index >= p {
		return fmt.Errorf("mpcnet: worker index %d outside the %d-server program", cfg.Index, p)
	}

	srv, err := mpc.NewFragServer()
	if err != nil {
		return err
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		srv.Serve()
	}()
	defer serving.Wait()
	defer srv.Close() // the run is over either way; close is best-effort
	_, share, err := roundtrip(cfg.CoordAddr, ctrlRequest{Op: "hello", Index: cfg.Index, Addr: srv.Addr()}, nil)
	if err != nil {
		return err
	}

	// Closed before the fragment server (defers run last-in first-out):
	// nothing of the run's data plane outlives RunWorker.
	streams := make([]*mpc.Stream, p)
	for w := range streams {
		if w != cfg.Index {
			streams[w] = mpc.OpenStream(peerAddr(cfg.CoordAddr, cfg.Index, w), cfg.Index)
			defer streams[w].Close() // the run is over either way; close is best-effort
		}
	}

	var local *rel.Instance
	var received, deltaSent []int
	start := 0
	if cfg.CkptDir != "" {
		cur, state, err := resumeCheckpoint(cfg.CkptDir, cfg.Index)
		if err != nil {
			return fmt.Errorf("mpcnet: worker %d resuming: %w", cfg.Index, err)
		}
		if cur != nil {
			local, received, deltaSent, start = state, cur.Received, cur.DeltaSent, cur.Round
		}
	}
	if local == nil {
		// A fresh start: the share the hello was answered with. A resume
		// leaves it undecoded — the checkpoint holds what it became.
		if local, err = rel.DecodeInstance(share); err != nil {
			return fmt.Errorf("mpcnet: worker %d decoding its share: %w", cfg.Index, err)
		}
	}

	for r := start; r < len(built.Rounds); r++ {
		round := built.Rounds[r]
		if cfg.CkptDir != "" {
			if err := writeCheckpoint(cfg.CkptDir, cfg.Index, cursor{Round: r, Received: received, DeltaSent: deltaSent}, local); err != nil {
				return err
			}
		}
		if cfg.FailRound == r {
			// The crash under test. The coordinator's respawn (without the
			// failpoint) recovers from the checkpoint just written.
			crash()
		}

		shard, err := mpc.RouteSource(round, p, cfg.Index, local)
		if err != nil {
			return err
		}
		frames := mpc.ShardFrames(uint64(r), cfg.Index, shard)
		srv.Publish(frames)
		for w, st := range streams {
			if st != nil {
				st.Post(uint64(r), w)
			}
		}
		inbox, myRecv, err := mpc.MergeInbox(cfg.Index, p, func(w int) (mpc.Frame, error) {
			if w == cfg.Index {
				return frames[w], nil // own fragment: no socket
			}
			return streams[w].Pull(uint64(r), w)
		})
		if err != nil {
			return err
		}
		if err := mpc.AdoptResident(round, cfg.Index, local, inbox); err != nil {
			return err
		}
		if local, err = mpc.ComputeServer(round, cfg.Index, inbox); err != nil {
			return err
		}
		received = append(received, myRecv)
		deltaSent = append(deltaSent, shard.DeltaSent)
		if cfg.CkptDir != "" && r > 0 {
			// Round r's pulls are complete, so by the retention invariant
			// nothing below r−1 is reachable: reclaim those published
			// rounds (their checkpoints' slots are already overwritten).
			// Without checkpoints a respawn rewinds to round 0, so
			// everything stays.
			srv.RetireBelow(uint64(r - 1))
		}
	}

	// The result barrier: the coordinator holds this response until
	// every worker has reported — however long that takes (roundtrip
	// waits for it without a deadline) — so no worker tears down its
	// fragment server while a recovering peer might still need to re-pull.
	_, _, err = roundtrip(cfg.CoordAddr, ctrlRequest{
		Op:        "result",
		Index:     cfg.Index,
		Received:  received,
		DeltaSent: deltaSent,
	}, rel.EncodeInstance(local))
	return err
}
