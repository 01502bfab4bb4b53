package mpcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// A snapshot is a drained server spilled to disk, every file of it a
// CRC-checked policy store image (policy.SaveStore/LoadStore): one
// fragment image per session plus the manifest, an image of no
// fragments whose meta section is JSON carrying everything the session
// images do not — the session's dict in intern order (value interning
// is order-dependent, and byte-identical resumption needs identical
// values), the anchor query's canonical text, the budget ledger, and
// the path counters. LoadSnapshot is the inverse: a restarted server
// answers the next query of every restored session byte-identically to
// a server that never went down, which the e2e kill-and-resume test pins.

// snapshotVersion guards the manifest layout; bump on incompatible
// change. Version 2 moved the manifest into a store image.
const snapshotVersion = 2

// manifestName is the snapshot's index file. It kept the name it had as
// plain JSON so that a version-1 directory fails loudly (bad magic)
// instead of looking empty.
const manifestName = "manifest.json"

// A session's fragment image is session-<id>.store in the snapshot dir.
const sessionFilePrefix, sessionFileSuffix = "session-", ".store"

// ErrNoSnapshot is what LoadSnapshot's error matches when the directory
// holds no manifest: nothing to restore, not a snapshot that fails to.
var ErrNoSnapshot = errors.New("mpcd: no snapshot")

type manifest struct {
	Version  int               `json:"version"`
	Seed     uint64            `json:"seed"`
	NextID   int               `json:"next_id"`
	Sessions []sessionManifest `json:"sessions"`
}

// sessionManifest is a session's status — what GET /v1/sessions/{id}
// must answer byte-identically after a restart — plus what the status
// does not show and the fragment image does not hold.
type sessionManifest struct {
	SessionStatus
	Seed  uint64   `json:"seed"`
	Dict  []string `json:"dict"`  // names in intern order
	Store string   `json:"store"` // fragment image, relative to the snapshot dir
}

// SaveSnapshot drains the server (idempotent; every in-flight query
// finishes first, so the snapshot is quiescent) and writes it to dir.
// Sessions are written in sorted-id order and every file lands
// atomically, so a crash mid-snapshot never leaves a plausible but
// half-written manifest: the manifest lands last, and only after every
// fragment image it names. Once it has, the session images it does not
// name — sessions deleted since the directory's previous snapshot — and
// any temporary a crashed writer left are removed.
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
	nextID := s.nextID
	s.sessMu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })

	m := manifest{Version: snapshotVersion, Seed: s.cfg.Seed, NextID: nextID}
	keep := make(map[string]bool, len(sessions))
	for _, sess := range sessions {
		sm, err := sess.snapshot(dir)
		if err != nil {
			return err
		}
		m.Sessions = append(m.Sessions, sm)
		keep[sm.Store] = true
	}
	raw, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("mpcd: encoding manifest: %w", err)
	}
	if err := policy.SaveStore(filepath.Join(dir, manifestName), policy.NewStableStore(nil).WithMeta(raw)); err != nil {
		return fmt.Errorf("mpcd: writing manifest: %w", err)
	}
	if err := sweepSnapshot(dir, keep); err != nil {
		return err
	}
	s.bump(func(st *StatzResponse) { st.CheckpointedSessions += len(sessions) })
	return nil
}

// snapshot writes one session's fragment image and returns its
// manifest entry.
func (sess *Session) snapshot(dir string) (sessionManifest, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	name := sessionFilePrefix + sess.ID + sessionFileSuffix
	if err := policy.SaveStore(filepath.Join(dir, name), sess.cluster.Checkpoint().Store()); err != nil {
		return sessionManifest{}, fmt.Errorf("mpcd: writing session %s: %w", sess.ID, err)
	}
	dictNames := make([]string, sess.dict.Len())
	for i := range dictNames {
		dictNames[i] = sess.dict.Name(rel.Value(i))
	}
	return sessionManifest{SessionStatus: sess.statusLocked(), Seed: sess.seed, Dict: dictNames, Store: name}, nil
}

// sweepSnapshot removes from dir the files of the snapshot writer's own
// two patterns — session images and writer temporaries — that keep, the
// images the manifest just landed names, does not hold. Anything else
// in the directory is not ours to touch.
func sweepSnapshot(dir string, keep map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("mpcd: sweeping snapshot dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		stale := strings.HasSuffix(name, policy.TempSuffix) ||
			strings.HasPrefix(name, sessionFilePrefix) && strings.HasSuffix(name, sessionFileSuffix) && !keep[name]
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("mpcd: sweeping snapshot dir: %w", err)
		}
	}
	return nil
}

// LoadSnapshot builds a server from a snapshot directory written by
// SaveSnapshot, with every session warm: fragments restored into
// clusters via mpc.RestoreStore, dicts re-interned in
// recorded order, anchors re-parsed so the next covered query reuses
// the restored distribution immediately. The manifest's seed overrides
// cfg's — routing hashes must match the process that wrote the
// snapshot, or the restored layout would not be the one the anchor's
// grid describes.
func LoadSnapshot(dir string, cfg Config) (*Server, error) {
	img, err := policy.LoadStore(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("mpcd: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(img.Meta(), &m); err != nil {
		return nil, fmt.Errorf("mpcd: decoding manifest: %w", err)
	}
	if m.Version != snapshotVersion {
		return nil, fmt.Errorf("mpcd: snapshot version %d (this server speaks %d)", m.Version, snapshotVersion)
	}
	cfg.Seed = m.Seed
	s := New(cfg)
	s.nextID = m.NextID
	for _, sm := range m.Sessions {
		sess, err := s.restoreSession(dir, sm)
		if err != nil {
			return nil, err
		}
		if s.sessions[sess.ID] != nil {
			return nil, fmt.Errorf("mpcd: snapshot names session %q twice", sess.ID)
		}
		s.sessions[sess.ID] = sess
	}
	s.bump(func(st *StatzResponse) { st.RestoredSessions += len(m.Sessions) })
	return s, nil
}

// restoreSession rebuilds one session from its manifest entry. The
// session is not yet published, so no locking is needed.
func (s *Server) restoreSession(dir string, sm sessionManifest) (*Session, error) {
	if !sessionIDPat.MatchString(sm.Session) {
		return nil, fmt.Errorf("mpcd: snapshot session id %q is invalid", sm.Session)
	}
	// filepath.Base forecloses traversal via a hand-edited manifest.
	store, err := policy.LoadStore(filepath.Join(dir, filepath.Base(sm.Store)))
	if err != nil {
		return nil, fmt.Errorf("mpcd: reading session %s store: %w", sm.Session, err)
	}
	if store.NumNodes() != sm.P {
		return nil, fmt.Errorf("mpcd: session %s store has %d nodes, manifest says %d", sm.Session, store.NumNodes(), sm.P)
	}
	dict := rel.NewDict()
	for _, n := range sm.Dict {
		dict.Value(n)
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
	return sess, nil
}
