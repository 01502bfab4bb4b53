package policy

import (
	"fmt"
	"slices"

	"mpclogic/internal/rel"
)

// StableStore models the durable half of a computing node's state:
// the horizontal fragment it was loaded with, which survives a crash
// and can be reloaded on restart. The transducer runtime's
// crash-restart fault injector reloads from here; everything else a
// node accumulated — received facts, protocol maps, auxiliary
// relations — is volatile and lost.
//
// A store is a view of the fragments it describes, not a copy: encoding
// one reads the fragments in place, and a decoded store's fragments are
// fresh instances nobody else holds, which a restart adopts as they
// are. A store that must outlive later mutation of its fragments — the
// transducer's, reloaded at every crash; an mpc.Checkpoint, which may
// be restored twice; the rolling checkpoint of a fault-tolerant
// cluster — is taken with Clone, and only those pay for a copy.
//
// Beside the fragments a store carries an opaque meta section for its
// owner, which EncodeStore/DecodeStore keep under the image's checksum.
type StableStore struct {
	meta  []byte
	parts []*rel.Instance
}

// NewStableStore returns a store over parts themselves, one durable
// fragment per node. The fragments are shared, not copied: they must
// not change while the store is read.
func NewStableStore(parts []*rel.Instance) *StableStore {
	return &StableStore{parts: slices.Clone(parts)}
}

// Clone returns a deep copy of s: its fragments are copies that no
// later mutation of s's reaches, and none of theirs reaches s.
func (s *StableStore) Clone() *StableStore {
	c := &StableStore{meta: s.meta, parts: make([]*rel.Instance, len(s.parts))}
	for i, p := range s.parts {
		c.parts[i] = p.Clone()
	}
	return c
}

// Meta returns a copy of the store's meta section (nil when empty).
func (s *StableStore) Meta() []byte { return append([]byte(nil), s.meta...) }

// WithMeta returns a store with a copy of meta as its meta section over
// the same fragments, shared as NewStableStore shares them.
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

// Fragment returns node κ's durable fragment itself, not a copy. A
// caller that will change it clones it first, unless the store is one
// it is done with — a freshly decoded image, adopted as it stands.
func (s *StableStore) Fragment(κ Node) *rel.Instance {
	if int(κ) < 0 || int(κ) >= len(s.parts) {
		panic(fmt.Sprintf("policy: fragment of node %d from a %d-node store", κ, len(s.parts)))
	}
	return s.parts[κ]
}
