package rel

import (
	"slices"
	"strings"
)

// Fact is a relation name applied to a tuple of domain values, e.g.
// R(a, b). Facts are the unit of distribution in the whole library:
// distribution policies map facts to servers, transducer networks
// broadcast facts, and MPC load is counted in facts.
type Fact struct {
	Rel   string
	Tuple Tuple
}

// NewFact builds a fact from a relation name and values.
func NewFact(rel string, vals ...Value) Fact {
	return Fact{Rel: rel, Tuple: Tuple(vals)}
}

// Key returns a map key identifying the fact (relation name + tuple).
func (f Fact) Key() string {
	return f.Rel + "\x00" + f.Tuple.Key()
}

// Hash returns a partition-quality hash of the fact.
func (f Fact) Hash() uint64 {
	h := f.Tuple.Hash()
	for i := 0; i < len(f.Rel); i++ {
		h ^= uint64(f.Rel[i])
		h *= 1099511628211
	}
	return h
}

// Equal reports whether f and g denote the same fact.
func (f Fact) Equal(g Fact) bool {
	return f.Rel == g.Rel && f.Tuple.Equal(g.Tuple)
}

// Clone returns a deep copy of f.
func (f Fact) Clone() Fact {
	return Fact{Rel: f.Rel, Tuple: f.Tuple.Clone()}
}

// ADom returns adom(f), the set of domain values occurring in f.
func (f Fact) ADom() ValueSet { return f.Tuple.ADom() }

// AppendWith appends the fact's rendering to dst and returns the
// extended buffer: the relation name, then Tuple.AppendWith (symbolic
// names from d, raw numbers when d is nil).
func (f Fact) AppendWith(dst []byte, d *Dict) []byte {
	return f.Tuple.AppendWith(append(dst, f.Rel...), d)
}

// String renders the fact with raw numeric values.
func (f Fact) String() string { return string(f.AppendWith(make([]byte, 0, 64), nil)) }

// StringWith renders the fact with symbolic names from d.
func (f Fact) StringWith(d *Dict) string { return string(f.AppendWith(make([]byte, 0, 64), d)) }

// Compare is the three-way form of the order on facts: relation name
// first, then Tuple.Compare.
func (f Fact) Compare(g Fact) int {
	if c := strings.Compare(f.Rel, g.Rel); c != 0 {
		return c
	}
	return f.Tuple.Compare(g.Tuple)
}

// Less orders facts by relation name, then tuple, for deterministic
// output in reports and tests.
func (f Fact) Less(g Fact) bool { return f.Compare(g) < 0 }

// SortFacts sorts fs in place by (relation, tuple).
func SortFacts(fs []Fact) {
	slices.SortFunc(fs, Fact.Compare)
}
