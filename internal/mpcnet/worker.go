package mpcnet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
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
	// CkptDir is where per-round checkpoints live. Shared by all
	// incarnations of this worker; distinct workers may share it
	// because file names embed the index.
	CkptDir string
	// FailRound, when ≥ 0, kills the process with SIGKILL right after
	// the checkpoint for that round is written — the crash the recovery
	// path is tested against. The coordinator arms it only on a
	// worker's first incarnation, so the respawn runs to completion.
	FailRound int
}

// checkpoint is the durable state written at the START of each round:
// everything needed to re-execute from that round. State goes through
// the policy store encoding — the same bytes a checkpoint replica
// would hold — wrapped in JSON with the round cursor and the logical
// accounting accumulated so far.
type checkpoint struct {
	Round     int    `json:"round"`
	Received  []int  `json:"received"`
	DeltaSent []int  `json:"deltaSent"`
	State     string `json:"state"` // base64(policy.EncodeStore of a 1-node store)
}

func ckptPath(dir string, index, round int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d-round-%d.ckpt", index, round))
}

// writeCheckpoint persists atomically (tmp + rename), so a crash
// mid-write leaves the previous checkpoint set intact.
func writeCheckpoint(dir string, index, round int, received, deltaSent []int, local *rel.Instance) error {
	var buf bytes.Buffer
	if err := policy.EncodeStore(&buf, policy.NewStableStore([]*rel.Instance{local})); err != nil {
		return fmt.Errorf("mpcnet: encoding checkpoint state: %w", err)
	}
	ck := checkpoint{
		Round:     round,
		Received:  append([]int(nil), received...),
		DeltaSent: append([]int(nil), deltaSent...),
		State:     base64.StdEncoding.EncodeToString(buf.Bytes()),
	}
	enc, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	tmp := ckptPath(dir, index, round) + ".tmp"
	if err := os.WriteFile(tmp, enc, 0o644); err != nil {
		return fmt.Errorf("mpcnet: writing checkpoint: %w", err)
	}
	return os.Rename(tmp, ckptPath(dir, index, round))
}

func readCheckpoint(dir string, index, round int) (*checkpoint, *rel.Instance, error) {
	enc, err := os.ReadFile(ckptPath(dir, index, round))
	if err != nil {
		return nil, nil, err
	}
	var ck checkpoint
	if err := json.Unmarshal(enc, &ck); err != nil {
		return nil, nil, fmt.Errorf("mpcnet: decoding checkpoint %d: %w", round, err)
	}
	raw, err := base64.StdEncoding.DecodeString(ck.State)
	if err != nil {
		return nil, nil, fmt.Errorf("mpcnet: decoding checkpoint %d state: %w", round, err)
	}
	store, err := policy.DecodeStore(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("mpcnet: decoding checkpoint %d store: %w", round, err)
	}
	if store.NumNodes() != 1 {
		return nil, nil, fmt.Errorf("mpcnet: checkpoint %d holds %d fragments, want 1", round, store.NumNodes())
	}
	return &ck, store.Reload(0), nil
}

// checkpointRounds lists the rounds this worker has a checkpoint for in
// dir (none when the directory is unreadable). Other workers' files are
// skipped — the name embeds the index — so a shared checkpoint directory
// stays safe.
func checkpointRounds(dir string, index int) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var rounds []int
	for _, e := range entries {
		var idx, round int
		if _, err := fmt.Sscanf(e.Name(), "worker-%d-round-%d.ckpt", &idx, &round); err == nil && idx == index {
			rounds = append(rounds, round)
		}
	}
	return rounds
}

// gcCheckpoints removes this worker's checkpoints for rounds below
// keepFrom. Best-effort by design: recovery only ever reads the two
// newest checkpoints (resume is latest−1), which the caller retains,
// and a failed unlink merely leaves a little extra disk for the next
// GC pass to retry.
func gcCheckpoints(dir string, index, keepFrom int) {
	for _, round := range checkpointRounds(dir, index) {
		if round < keepFrom {
			_ = os.Remove(ckptPath(dir, index, round)) //lint:allow error-discard best-effort space reclamation; recovery needs only the retained newest two checkpoints
		}
	}
}

// latestCheckpoint is this worker's highest checkpoint round in dir, or
// -1 when none exists (fresh start).
func latestCheckpoint(dir string, index int) int {
	latest := -1
	for _, round := range checkpointRounds(dir, index) {
		if round > latest {
			latest = round
		}
	}
	return latest
}

// RunWorker executes one worker's share of the program, every step of
// a round being mpc's own, for one server: route this server's facts
// (mpc.RouteSource), publish the shard's frames, pull every peer's and
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
// is also what bounds how many checkpoints and published rounds a
// worker keeps. Re-executing from latest-1 re-publishes (byte-identical,
// by determinism) everything any peer could still ask for, and the
// re-pulls succeed because peers retain the same two rounds.
func RunWorker(cfg WorkerConfig) error {
	built, err := Build(cfg.Spec)
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
	if _, err := roundtrip(cfg.CoordAddr, ctrlRequest{Op: "hello", Index: cfg.Index, Addr: srv.Addr()}); err != nil {
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

	local := WorkerSlice(built.Input, p, cfg.Index)
	var received, deltaSent []int
	start := 0
	if latest := latestCheckpoint(cfg.CkptDir, cfg.Index); latest >= 0 {
		resume := latest - 1
		if resume < 0 {
			resume = 0
		}
		ck, state, err := readCheckpoint(cfg.CkptDir, cfg.Index, resume)
		if err != nil {
			return fmt.Errorf("mpcnet: worker %d resuming at round %d: %w", cfg.Index, resume, err)
		}
		local, received, deltaSent, start = state, ck.Received, ck.DeltaSent, ck.Round
	}

	for r := start; r < len(built.Rounds); r++ {
		round := built.Rounds[r]
		if cfg.CkptDir != "" {
			if err := writeCheckpoint(cfg.CkptDir, cfg.Index, r, received, deltaSent, local); err != nil {
				return err
			}
		}
		if cfg.FailRound == r {
			// The crash under test: die hard, no deferred cleanup, exactly
			// like a lost machine. The coordinator's respawn (without the
			// failpoint) recovers from the checkpoint just written.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL) //lint:allow error-discard the process is gone either way
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
			// nothing below r−1 is reachable: reclaim those checkpoints and
			// published rounds. (Without checkpoints a respawn rewinds to
			// round 0, so everything stays.)
			gcCheckpoints(cfg.CkptDir, cfg.Index, r-1)
			srv.RetireBelow(uint64(r - 1))
		}
	}

	// The result barrier: the coordinator holds this response until
	// every worker has reported — however long that takes (roundtrip
	// waits for it without a deadline) — so no worker tears down its
	// fragment server while a recovering peer might still need to re-pull.
	_, err = roundtrip(cfg.CoordAddr, ctrlRequest{
		Op:        "result",
		Index:     cfg.Index,
		Received:  received,
		DeltaSent: deltaSent,
		Fragment:  rel.EncodeInstance(local),
	})
	return err
}
