package mpcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/sweep"
)

// A snapshot is a drained server spilled to one file, a policy log
// landed by policy.WriteLog. Record 0 is the header: an image of no
// fragments whose meta is snapshotHeader's JSON. One record per session
// follows, in strictly increasing ID order: the session's fragments,
// with as meta the JSON of everything they do not hold — the session's
// dict in intern order (value interning is order-dependent, and
// byte-identical resumption needs identical values), the anchor query's
// canonical text, the budget ledger, and the path counters.
// LoadSnapshot is the inverse: a restarted server answers the next
// query of every restored session byte-identically to a server that
// never went down, which the e2e kill-and-resume test pins.
//
// The file's rename is a snapshot's one commit point: a snapshot cut
// short anywhere before it leaves the previous one exactly as it was.
//
// Sessions are independent, so both directions fan out over them, at
// most GOMAXPROCS at once (sweep.Each, whose package doc is the
// determinism argument): a session's record is encoded straight from
// its live fragments, and a restored session adopts the fragments its
// record decodes to, decoded in place from the bytes the file was read
// into, so neither direction copies one. The slots are read back in ID
// order, so the file and the first error reported are those of a
// sequential pass.

// snapshotVersion guards the snapshot layout; bump on incompatible
// change. Version 2 moved the manifest into a store image, 3 made the
// whole snapshot one log.
const snapshotVersion = 3

// manifestName is the snapshot file. It kept the name it had as plain
// JSON so that a version-1 or version-2 directory fails loudly (a
// record header that does not check) instead of looking empty.
const manifestName = "manifest.json"

// ErrNoSnapshot is what LoadSnapshot's error matches when the directory
// holds no snapshot file: nothing to restore, not a snapshot that fails
// to.
var ErrNoSnapshot = errors.New("mpcd: no snapshot")

// snapshotHeader is record 0's meta: what is the server's rather than a
// session's, and how many session records follow.
type snapshotHeader struct {
	Version  int    `json:"version"`
	Seed     uint64 `json:"seed"`
	NextID   int    `json:"next_id"`
	Sessions int    `json:"sessions"`
}

// sessionManifest is a session record's meta: the session's status —
// what GET /v1/sessions/{id} must answer byte-identically after a
// restart — plus what the status does not show and the fragments do not
// hold.
type sessionManifest struct {
	SessionStatus
	Seed uint64   `json:"seed"`
	Dict []string `json:"dict"` // names in intern order
}

// SaveSnapshot drains the server (idempotent; every in-flight query
// finishes first, so the snapshot is quiescent) and writes it to
// dir/manifest.json. The sessions' records are encoded concurrently and
// land, after the header, in sorted-id order, all in one file renamed
// over the previous snapshot: a crash anywhere before that rename
// leaves the previous snapshot whole.
func (s *Server) SaveSnapshot(dir string) error {
	s.Drain()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mpcd: snapshot dir: %w", err)
	}
	s.sessMu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	hdr := snapshotHeader{Version: snapshotVersion, Seed: s.cfg.Seed, NextID: s.nextID, Sessions: len(sessions)}
	s.sessMu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })

	records := make([][]byte, 1+len(sessions))
	var err error
	if records[0], err = snapshotRecord(&hdr, policy.NewStableStore(nil)); err != nil {
		return err
	}
	if err := sweep.Each(len(sessions), runtime.GOMAXPROCS(0), func(i int) (err error) {
		records[1+i], err = sessions[i].record()
		return err
	}); err != nil {
		return err
	}
	if err := policy.WriteLog(filepath.Join(dir, manifestName), records...); err != nil {
		return fmt.Errorf("mpcd: writing snapshot: %w", err)
	}
	s.bump(func(st *StatzResponse) { st.CheckpointedSessions += len(sessions) })
	return nil
}

// record encodes the session as one snapshot record, straight from its
// live fragments, which sess.mu keeps still until they are encoded.
func (sess *Session) record() ([]byte, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	dictNames := make([]string, sess.dict.Len())
	for i := range dictNames {
		dictNames[i] = sess.dict.Name(rel.Value(i))
	}
	sm := sessionManifest{SessionStatus: sess.statusLocked(), Seed: sess.seed, Dict: dictNames}
	return snapshotRecord(&sm, policy.NewStableStore(fragments(sess.cluster)))
}

// snapshotRecord frames store, with meta's JSON as its meta section, as
// one record of a snapshot log.
func snapshotRecord(meta any, store *policy.StableStore) ([]byte, error) {
	raw, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("mpcd: encoding snapshot record: %w", err)
	}
	return policy.EncodeLogRecord(store.WithMeta(raw)), nil
}

// LoadSnapshot builds a server from the snapshot SaveSnapshot wrote to
// dir, with every session warm: each record's decoded fragments adopted
// as a cluster's servers via mpc.RestoreStore, dicts re-interned in
// recorded order, anchors re-parsed so the next covered query reuses
// the restored distribution immediately. The file is read once and
// split into records; the sessions' records are decoded and restored
// concurrently and published in file order, and the error returned is
// that of the first failing record in that order. A file that is not
// whole records, holds another number of sessions than its header
// says, or lists session IDs out of order or twice is an error; only a
// missing file is ErrNoSnapshot. The header's seed overrides cfg's —
// routing hashes must match the process that wrote the snapshot, or the
// restored layout would not be the one the anchor's grid describes.
func LoadSnapshot(dir string, cfg Config) (*Server, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("mpcd: reading snapshot: %w", err)
	}
	imgs, valid, err := policy.FrameLog(data)
	switch {
	case err != nil:
		return nil, fmt.Errorf("mpcd: reading snapshot %s: %w", path, err)
	case valid != len(data):
		return nil, fmt.Errorf("mpcd: snapshot %s is cut short: its records end at byte %d of %d", path, valid, len(data))
	case len(imgs) == 0:
		return nil, fmt.Errorf("mpcd: snapshot %s holds no header", path)
	}
	head, err := policy.DecodeImage(imgs[0])
	if err != nil {
		return nil, fmt.Errorf("mpcd: snapshot record 0: %w", err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(head.Meta(), &hdr); err != nil {
		return nil, fmt.Errorf("mpcd: decoding snapshot header: %w", err)
	}
	switch {
	case hdr.Version != snapshotVersion:
		return nil, fmt.Errorf("mpcd: snapshot version %d (this server speaks %d)", hdr.Version, snapshotVersion)
	case head.NumNodes() != 0:
		return nil, fmt.Errorf("mpcd: snapshot header holds %d fragments, want none", head.NumNodes())
	case hdr.Sessions != len(imgs)-1:
		return nil, fmt.Errorf("mpcd: snapshot header says %d sessions, the file holds %d", hdr.Sessions, len(imgs)-1)
	}
	cfg.Seed = hdr.Seed
	s := New(cfg)
	s.nextID = hdr.NextID
	restored := make([]*Session, hdr.Sessions)
	err = sweep.Each(len(restored), runtime.GOMAXPROCS(0), func(i int) error {
		store, err := policy.DecodeImage(imgs[1+i])
		if err != nil {
			return fmt.Errorf("mpcd: snapshot record %d: %w", 1+i, err)
		}
		restored[i], err = s.restoreSession(store)
		return err
	})
	for i, sess := range restored {
		// A failed record leaves its slot nil, and the first nil slot
		// is the lowest failed record, whose error Each returned: the
		// error of a sequential pass, order checks included.
		if sess == nil {
			return nil, err
		}
		if i > 0 && sess.ID <= restored[i-1].ID {
			return nil, fmt.Errorf("mpcd: snapshot lists session %q after %q, not in strictly increasing order", sess.ID, restored[i-1].ID)
		}
		s.sessions[sess.ID] = sess
	}
	s.bump(func(st *StatzResponse) { st.RestoredSessions += len(restored) })
	return s, nil
}

// restoreSession rebuilds one session from its decoded record, whose
// fragments it adopts. The session is not yet published, so no locking
// is needed; what it shares with the other sessions restoring beside it
// — the server's plan cache and counters — is locked where it lives.
func (s *Server) restoreSession(store *policy.StableStore) (*Session, error) {
	var sm sessionManifest
	if err := json.Unmarshal(store.Meta(), &sm); err != nil {
		return nil, fmt.Errorf("mpcd: decoding snapshot session: %w", err)
	}
	if !sessionIDPat.MatchString(sm.Session) {
		return nil, fmt.Errorf("mpcd: snapshot session id %q is invalid", sm.Session)
	}
	if sm.P < 1 || sm.P > maxSessionP {
		return nil, fmt.Errorf("mpcd: session %s has p = %d, outside 1..%d", sm.Session, sm.P, maxSessionP)
	}
	if store.NumNodes() != sm.P {
		return nil, fmt.Errorf("mpcd: session %s store has %d nodes, its record says %d", sm.Session, store.NumNodes(), sm.P)
	}
	dict := rel.NewDict()
	for _, n := range sm.Dict {
		dict.Value(n)
	}
	// A dict naming a value twice would intern every later name one
	// value early, and the session would answer in other bytes.
	if dict.Len() != len(sm.Dict) {
		return nil, fmt.Errorf("mpcd: session %s dict names %d values, %d distinct", sm.Session, len(sm.Dict), dict.Len())
	}
	sess := &Session{
		ID:            sm.Session,
		srv:           s,
		p:             sm.P,
		seed:          sm.Seed,
		dict:          dict,
		parsed:        make(map[string]*sessionQuery),
		facts:         sm.Facts,
		budgetTotal:   sm.BudgetTotal,
		budgetSpent:   sm.BudgetSpent,
		queries:       sm.Queries,
		reused:        sm.Reused,
		repartitioned: sm.Repartitioned,
		gathered:      sm.Gathered,
	}
	sess.cluster = mpc.RestoreStore(store)
	if sm.Anchor != "" {
		sq, aerr := sess.parseQuery(LangCQ, sm.Anchor, "")
		if aerr != nil {
			return nil, fmt.Errorf("mpcd: session %s anchor %q: %s", sm.Session, sm.Anchor, aerr.Message)
		}
		sess.anchor = sq
	}
	held, aerr := sess.heldFacts()
	if aerr != nil {
		return nil, fmt.Errorf("mpcd: session %s: %s", sm.Session, aerr.Message)
	}
	if held != sm.Facts {
		return nil, fmt.Errorf("mpcd: session %s holds %d facts, its record says %d", sm.Session, held, sm.Facts)
	}
	return sess, nil
}

// heldFacts counts the session's distinct facts the way reship routes
// them: every fact of an unanchored session, which the round-robin
// layout holds once; under an anchor, a fact where its placement's
// owner holds it, or anywhere when it has none (−1, or no owner
// function: a relation the anchor does not replicate costs one Len).
func (sess *Session) heldFacts() (int, *apiError) {
	owner, aerr := sess.anchorOwner()
	if aerr != nil {
		return 0, aerr
	}
	n := 0
	for s, frag := range fragments(sess.cluster) {
		for _, name := range frag.RelationNames() {
			rl := frag.Relation(name)
			var own func(rel.Tuple) int
			if owner != nil {
				own = owner(name, rl.Arity)
			}
			if own == nil {
				n += rl.Len()
				continue
			}
			rl.Each(func(t rel.Tuple) bool {
				if o := own(t); o < 0 || o == s {
					n++
				}
				return true
			})
		}
	}
	return n, nil
}
