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
	// CkptDir is where the worker's checkpoint log lives (two files, see
	// checkpointLog). Shared by all incarnations of this worker; distinct
	// workers may share it because file names embed the index.
	CkptDir string
	// FailRound, when ≥ 0, kills the process with SIGKILL at the start
	// of that round, right after its checkpoint is written — the crash
	// the recovery path is tested against. Round 0 of a fresh start
	// writes no checkpoint (its state is the share every hello is
	// answered with), so a kill there leaves nothing behind it. The
	// coordinator arms it only on a worker's first incarnation, so the
	// respawn runs to completion.
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

// logPath names file f ∈ {0, 1} of worker index's checkpoint log.
// Distinct workers may share dir because the name embeds the index.
func logPath(dir string, index, f int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d.log%d", index, f))
}

// checkpoint is one record of a worker's log, decoded.
type checkpoint struct {
	cursor
	state *rel.Instance
	size  int // the record's length in its file
}

// logFile is one of a worker's two checkpoint files: its complete
// records in order, and the length of the prefix they make up.
type logFile struct {
	ckpts []checkpoint
	valid int
}

// last is the round of the file's newest record, −1 when it has none.
func (f logFile) last() int {
	if len(f.ckpts) == 0 {
		return -1
	}
	return f.ckpts[len(f.ckpts)-1].Round
}

// readLogFile decodes the checkpoint file at path; a missing file holds
// no record. A damaged record is policy's *LogError.
func readLogFile(path string) (logFile, error) {
	recs, valid, err := policy.LoadLog(path)
	if errors.Is(err, fs.ErrNotExist) {
		return logFile{}, nil
	}
	if err != nil {
		return logFile{}, err
	}
	f := logFile{ckpts: make([]checkpoint, len(recs)), valid: valid}
	for i, rec := range recs {
		if n := rec.Store.NumNodes(); n != 1 {
			return logFile{}, fmt.Errorf("mpcnet: %s: record %d holds %d fragments, want 1", path, i, n)
		}
		c := &f.ckpts[i]
		if err := json.Unmarshal(rec.Store.Meta(), &c.cursor); err != nil {
			return logFile{}, fmt.Errorf("mpcnet: %s: decoding record %d's cursor: %w", path, i, err)
		}
		c.state, c.size = rec.Store.Fragment(0), rec.Size
	}
	return f, nil
}

// readCheckpoints reads both of worker index's checkpoint files and
// names the current one, which appends go to: the file whose newest
// record has the higher round (file 0 when neither has a record).
func readCheckpoints(dir string, index int) (files [2]logFile, cur int, err error) {
	for f := range files {
		if files[f], err = readLogFile(logPath(dir, index, f)); err != nil {
			return files, 0, err
		}
	}
	if files[1].last() > files[0].last() {
		cur = 1
	}
	return files, cur, nil
}

// CheckpointGapError reports a worker whose checkpoint log holds round
// Newest but not round Want = max(0, Newest−1), the round a respawn
// rewinds to: a log the rotation bound should never have produced.
type CheckpointGapError struct {
	Index, Newest, Want int
}

func (e *CheckpointGapError) Error() string {
	return fmt.Sprintf("mpcnet: worker %d's checkpoints reach round %d but hold no round %d to resume from", e.Index, e.Newest, e.Want)
}

// resumePoint is the checkpoint a fresh incarnation of worker index
// re-executes from: round max(0, newest−1), newest being the highest
// round either file holds — the one-round rewind of the retention
// invariant — or nil for a fresh start: when neither file holds a
// record, or when the round wanted is 0 and no record holds it. A
// fresh start's round 0 needs none: its state is the share the hello
// is answered with, which is why a worker never writes it. Of several
// records of one round the newest is taken: the other file's are read
// first, the current file's after them, each in order.
func resumePoint(index int, files [2]logFile, cur int) (*checkpoint, error) {
	byRound := make(map[int]*checkpoint)
	newest := -1
	for _, f := range [2]int{1 - cur, cur} {
		for i := range files[f].ckpts {
			c := &files[f].ckpts[i]
			byRound[c.Round] = c
			newest = max(newest, c.Round)
		}
	}
	if newest < 0 {
		return nil, nil
	}
	want := max(newest-1, 0)
	if c := byRound[want]; c != nil || want == 0 {
		return c, nil
	}
	return nil, &CheckpointGapError{Index: index, Newest: newest, Want: want}
}

// checkpointLog is worker index's checkpoint log as one incarnation
// appends to it: a policy.Log spread over two files, worker-<i>.log0
// and .log1, appends going to the current one, which is opened (and
// created, if missing) at the incarnation's first append — a run whose
// workers never append, such as a one-round run, leaves no file. Before
// an append — but the incarnation's first — a current file holding more
// than twice the bytes of its two newest records is retired: the other
// file is removed and started afresh as the current one. A worker so
// never has more than two files, their size stays a constant multiple
// of its newest checkpoints', and no file is created per round.
//
// Retiring loses nothing a resume needs. A resume after the append of
// round r rewinds to r−1; an append that is not the incarnation's first
// follows the incarnation's own append of r−1 to the current file,
// which retiring keeps. The first append follows no append of this
// incarnation — the round before it may sit only in the other file —
// so it never retires. A fresh start's first append is round 1's: its
// round 0 is the hello's share, never written, and a resume that wants
// round 0 finds it there.
type checkpointLog struct {
	dir      string
	index    int
	cur      int         // the file appends go to
	valid    int         // file cur's valid prefix, cut to at the first append
	log      *policy.Log // file cur, open for appends; nil before the first
	newest   [2]int      // sizes of file cur's two newest records, the newest last
	appended bool        // whether this incarnation has appended
}

// openCheckpoints reads worker index's checkpoint log in dir for this
// incarnation's appends; the current file's torn tail, if any, is cut
// at the first. It returns the checkpoint to resume from, nil for a
// fresh start.
func openCheckpoints(dir string, index int) (*checkpointLog, *checkpoint, error) {
	files, cur, err := readCheckpoints(dir, index)
	if err != nil {
		return nil, nil, err
	}
	from, err := resumePoint(index, files, cur)
	if err != nil {
		return nil, nil, err
	}
	l := &checkpointLog{dir: dir, index: index, cur: cur, valid: files[cur].valid}
	for _, c := range files[cur].ckpts {
		l.newest = [2]int{l.newest[1], c.size}
	}
	return l, from, nil
}

// write appends the checkpoint of round cur.Round: local, under the
// cursor.
func (l *checkpointLog) write(cur cursor, local *rel.Instance) error {
	if !l.appended {
		log, err := policy.OpenLog(logPath(l.dir, l.index, l.cur), l.valid)
		if err != nil {
			return fmt.Errorf("mpcnet: opening the checkpoint log: %w", err)
		}
		l.log = log
	} else if l.log.Size() > 2*(l.newest[0]+l.newest[1]) {
		if err := l.retire(); err != nil {
			return fmt.Errorf("mpcnet: rotating the checkpoint log: %w", err)
		}
	}
	meta, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	n, err := l.log.Append(policy.NewStableStore([]*rel.Instance{local}).WithMeta(meta))
	if err != nil {
		return fmt.Errorf("mpcnet: writing checkpoint %d: %w", cur.Round, err)
	}
	l.newest = [2]int{l.newest[1], n}
	l.appended = true
	return nil
}

// retire removes the other file and makes it, started afresh, the
// current one.
func (l *checkpointLog) retire() error {
	if err := l.log.Close(); err != nil {
		return err
	}
	other := 1 - l.cur
	path := logPath(l.dir, l.index, other)
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	log, err := policy.OpenLog(path, 0)
	if err != nil {
		return err
	}
	l.cur, l.log, l.newest = other, log, [2]int{}
	return nil
}

func (l *checkpointLog) close() error {
	if l.log == nil {
		return nil
	}
	return l.log.Close()
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
// facts (mpc.RouteSource), publish the shard's frames for its peers, pull
// every peer's and merge in shard order, its own outbox in process
// (mpc.MergeInbox over one mpc.Stream per peer), adopt residents,
// compute; then deliver the final fragment and
// per-round accounting to the coordinator. The p−1 streams are opened
// for the run, not the round: a fault-free run dials each peer once. Each
// round's requests are posted on every stream before the first answer
// is read, so peers' answers are in flight while earlier ones are read.
//
// Recovery: a fresh incarnation resumes from max(0, latest-1) where
// latest is the highest checkpoint in its log — round 0 being the
// hello's share, which no checkpoint holds — the one-round rewind of
// the data plane's retention invariant (internal/mpc/plane.go), which
// is also why the log need keep only two rounds' checkpoints and the
// fragment server two published rounds. Re-executing from latest-1
// re-publishes (byte-identical, by determinism) everything any peer
// could still ask for, and the re-pulls succeed because peers retain
// the same two rounds.
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

	var ckpt *checkpointLog
	var local *rel.Instance
	var received, deltaSent []int
	start := 0
	if cfg.CkptDir != "" {
		var from *checkpoint
		if ckpt, from, err = openCheckpoints(cfg.CkptDir, cfg.Index); err != nil {
			return fmt.Errorf("mpcnet: worker %d resuming: %w", cfg.Index, err)
		}
		defer ckpt.close() // every append is one whole write; close is best-effort
		if from != nil {
			local, received, deltaSent, start = from.state, from.Received, from.DeltaSent, from.Round
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
		// Round 0's state is the hello's share, which a resume is answered
		// with again: only a later round's is written.
		if ckpt != nil && r > 0 {
			if err := ckpt.write(cursor{Round: r, Received: received, DeltaSent: deltaSent}, local); err != nil {
				return err
			}
		}
		if cfg.FailRound == r {
			// The crash under test. The coordinator's respawn (without the
			// failpoint) recovers from the checkpoint just written, or from
			// the hello's share.
			crash()
		}

		shard, err := mpc.RouteSource(round, p, cfg.Index, local)
		if err != nil {
			return err
		}
		srv.Publish(mpc.ShardFrames(uint64(r), cfg.Index, shard, cfg.Index))
		for w, st := range streams {
			if st != nil {
				st.Post(uint64(r), w)
			}
		}
		// The own outbox is merged in process, at its position: no frame,
		// no codec, no socket.
		inbox, myRecv, err := mpc.MergeInbox(cfg.Index, p, &shard, func(w int) (mpc.Frame, error) {
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
		if ckpt != nil && r > 0 {
			// Round r's pulls are complete, so by the retention invariant
			// nothing below r−1 is reachable: reclaim those published
			// rounds. Without checkpoints a respawn rewinds to round 0, so
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
