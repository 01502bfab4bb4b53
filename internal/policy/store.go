package policy

import (
	"fmt"

	"mpclogic/internal/rel"
)

// StableStore models the durable half of a computing node's state:
// the horizontal fragment it was loaded with, which survives a crash
// and can be reloaded on restart. The transducer runtime's
// crash-restart fault injector reloads from here; everything else a
// node accumulated — received facts, protocol maps, auxiliary
// relations — is volatile and lost.
//
// The store snapshots the parts at construction time, so later
// mutation of a node's working state never leaks into what a restart
// recovers: reloads always reproduce the original distribution
// loc-inst(κ).
//
// Beside the fragments a store carries an opaque meta section for its
// owner, which EncodeStore/DecodeStore keep under the image's checksum.
type StableStore struct {
	meta  []byte
	parts []*rel.Instance
}

// NewStableStore snapshots one durable fragment per node.
func NewStableStore(parts []*rel.Instance) *StableStore {
	s := &StableStore{parts: make([]*rel.Instance, len(parts))}
	for i, p := range parts {
		s.parts[i] = p.Clone()
	}
	return s
}

// StoreFromPolicy builds the stable store holding loc-inst_{P,I}(κ)
// for every node κ — the distribution a policy-loaded network can
// recover after a crash.
func StoreFromPolicy(p Policy, i *rel.Instance) *StableStore {
	return NewStableStore(Distribute(p, i))
}

// Meta returns a copy of the store's meta section (nil when empty).
func (s *StableStore) Meta() []byte { return append([]byte(nil), s.meta...) }

// WithMeta returns a store with a copy of meta as its meta section over
// the same fragments, which are immutable and so safely shared.
func (s *StableStore) WithMeta(meta []byte) *StableStore {
	return &StableStore{meta: append([]byte(nil), meta...), parts: s.parts}
}

// NumNodes returns the number of fragments held.
func (s *StableStore) NumNodes() int { return len(s.parts) }

// TotalFacts returns the total fact count over all fragments — the
// size of the store on the wire, which checkpoint replication charges
// per replica.
func (s *StableStore) TotalFacts() int {
	n := 0
	for _, p := range s.parts {
		n += p.Len()
	}
	return n
}

// Reload returns a fresh copy of node κ's durable fragment; mutating
// the returned instance never affects the store.
func (s *StableStore) Reload(κ Node) *rel.Instance {
	if int(κ) < 0 || int(κ) >= len(s.parts) {
		panic(fmt.Sprintf("policy: reload of node %d from a %d-node store", κ, len(s.parts)))
	}
	return s.parts[κ].Clone()
}
