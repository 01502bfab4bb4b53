package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// A snapshot is a drained server spilled to disk: one CRC-checked
// policy.EncodeStore fragment image per session plus a JSON manifest
// carrying everything the image does not — the session's dict in
// intern order (value interning is order-dependent, and byte-identical
// resumption needs identical values), the anchor query's canonical
// text, the budget ledger, and the path counters. LoadSnapshot is the
// inverse: a restarted server answers the next query of every restored
// session byte-identically to a server that never went down, which the
// e2e kill-and-resume test pins.

// snapshotVersion guards the manifest layout; bump on incompatible
// change.
const snapshotVersion = 1

// manifestName is the snapshot's index file.
const manifestName = "manifest.json"

type manifest struct {
	Version  int               `json:"version"`
	Seed     uint64            `json:"seed"`
	NextID   int               `json:"next_id"`
	Sessions []sessionManifest `json:"sessions"`
}

type sessionManifest struct {
	ID            string   `json:"id"`
	P             int      `json:"p"`
	Seed          uint64   `json:"seed"`
	Dict          []string `json:"dict"`             // names in intern order
	Anchor        string   `json:"anchor,omitempty"` // canonical CQ text
	Facts         int      `json:"facts"`
	BudgetTotal   int      `json:"budget_total"`
	BudgetSpent   int      `json:"budget_spent"`
	Queries       int      `json:"queries"`
	Reused        int      `json:"reused"`
	Repartitioned int      `json:"repartitioned"`
	Gathered      int      `json:"gathered"`
	Store         string   `json:"store"` // fragment image, relative to the snapshot dir
}

// SaveSnapshot drains the server (idempotent; every in-flight query
// finishes first, so the snapshot is quiescent) and writes it to dir.
// Sessions are written in sorted-id order and every file lands via
// tmp+rename, so a crash mid-snapshot never leaves a plausible but
// half-written manifest: the manifest is renamed into place last, and
// only after every fragment image it names.
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
	for _, sess := range sessions {
		sm, err := sess.snapshot(dir)
		if err != nil {
			return err
		}
		m.Sessions = append(m.Sessions, sm)
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("mpcd: encoding manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, manifestName), append(raw, '\n')); err != nil {
		return fmt.Errorf("mpcd: writing manifest: %w", err)
	}
	s.bump(func(st *serverStats) { st.checkpointedSess += len(sessions) })
	return nil
}

// snapshot writes one session's fragment image and returns its
// manifest entry.
func (sess *Session) snapshot(dir string) (sessionManifest, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var buf bytes.Buffer
	if err := policy.EncodeStore(&buf, sess.cluster.Checkpoint().Store()); err != nil {
		return sessionManifest{}, fmt.Errorf("mpcd: encoding session %s: %w", sess.ID, err)
	}
	name := "session-" + sess.ID + ".store"
	if err := writeFileAtomic(filepath.Join(dir, name), buf.Bytes()); err != nil {
		return sessionManifest{}, fmt.Errorf("mpcd: writing session %s: %w", sess.ID, err)
	}
	dictNames := make([]string, sess.dict.Len())
	for i := range dictNames {
		dictNames[i] = sess.dict.Name(rel.Value(i))
	}
	sm := sessionManifest{
		ID:            sess.ID,
		P:             sess.p,
		Seed:          sess.seed,
		Dict:          dictNames,
		Facts:         sess.facts,
		BudgetTotal:   sess.budgetTotal,
		BudgetSpent:   sess.budgetSpent,
		Queries:       sess.queries,
		Reused:        sess.reused,
		Repartitioned: sess.repartitioned,
		Gathered:      sess.gathered,
		Store:         name,
	}
	if sess.anchor != nil {
		sm.Anchor = sess.anchor.text
	}
	return sm, nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
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
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("mpcd: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
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
	s.bump(func(st *serverStats) { st.restoredSessions += len(m.Sessions) })
	return s, nil
}

// restoreSession rebuilds one session from its manifest entry. The
// session is not yet published, so no locking is needed.
func (s *Server) restoreSession(dir string, sm sessionManifest) (*Session, error) {
	if !sessionIDPat.MatchString(sm.ID) {
		return nil, fmt.Errorf("mpcd: snapshot session id %q is invalid", sm.ID)
	}
	// filepath.Base forecloses traversal via a hand-edited manifest.
	raw, err := os.ReadFile(filepath.Join(dir, filepath.Base(sm.Store)))
	if err != nil {
		return nil, fmt.Errorf("mpcd: reading session %s store: %w", sm.ID, err)
	}
	store, err := policy.DecodeStore(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("mpcd: decoding session %s store: %w", sm.ID, err)
	}
	if store.NumNodes() != sm.P {
		return nil, fmt.Errorf("mpcd: session %s store has %d nodes, manifest says %d", sm.ID, store.NumNodes(), sm.P)
	}
	dict := rel.NewDict()
	for _, n := range sm.Dict {
		dict.Value(n)
	}
	sess := &Session{
		ID:            sm.ID,
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
			return nil, fmt.Errorf("mpcd: session %s anchor %q: %s", sm.ID, sm.Anchor, aerr.Message)
		}
		sess.anchor = sq
	}
	return sess, nil
}
