package rel

import (
	"sort"
	"strings"
)

// Instance is a database instance: a finite set of facts, organized per
// relation. The zero value is not usable; call NewInstance.
type Instance struct {
	rels map[string]*Relation
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// NewInstanceSize returns an empty instance pre-sized for n relations.
func NewInstanceSize(n int) *Instance {
	return &Instance{rels: make(map[string]*Relation, n)}
}

// FromFacts builds an instance containing exactly the given facts.
func FromFacts(fs ...Fact) *Instance {
	i := NewInstance()
	for _, f := range fs {
		i.Add(f)
	}
	return i
}

// Add inserts f, creating its relation on first use. It reports whether
// the fact was new.
func (i *Instance) Add(f Fact) bool {
	r, ok := i.rels[f.Rel]
	if !ok {
		r = NewRelation(f.Rel, len(f.Tuple))
		i.rels[f.Rel] = r
	}
	return r.Add(f.Tuple)
}

// AddAll inserts every fact of j into i, returning how many were new.
func (i *Instance) AddAll(j *Instance) int {
	added := 0
	for name, rj := range j.rels {
		ri, ok := i.rels[name]
		if !ok {
			i.rels[name] = rj.Clone()
			added += rj.Len()
			continue
		}
		added += ri.UnionWith(rj)
	}
	return added
}

// Contains reports whether f is in the instance.
func (i *Instance) Contains(f Fact) bool {
	r, ok := i.rels[f.Rel]
	return ok && r.Contains(f.Tuple)
}

// Relation returns the named relation, or nil if the instance holds no
// tuples for it.
func (i *Instance) Relation(name string) *Relation {
	return i.rels[name]
}

// EnsureRelation returns the named relation, creating an empty one with
// the given arity if absent.
func (i *Instance) EnsureRelation(name string, arity int) *Relation {
	r, ok := i.rels[name]
	if !ok {
		r = NewRelation(name, arity)
		i.rels[name] = r
	}
	return r
}

// EnsureRelationSize is EnsureRelation with a capacity hint: an absent
// relation is created pre-sized for size tuples, and an existing one is
// pre-grown to hold size more tuples without rehashing.
func (i *Instance) EnsureRelationSize(name string, arity, size int) *Relation {
	r, ok := i.rels[name]
	if !ok {
		r = NewRelationSize(name, arity, size)
		i.rels[name] = r
		return r
	}
	r.Reserve(size)
	return r
}

// SetRelation installs (replaces) a relation wholesale.
func (i *Instance) SetRelation(r *Relation) { i.rels[r.Name] = r }

// SetRelationAs installs r under an explicit name, regardless of
// r.Name. It exists for read-only views that bind a shared relation
// under a role name (e.g. the semi-naive Δ binding) without cloning
// it; evaluation reads relations by instance key, never by r.Name.
func (i *Instance) SetRelationAs(name string, r *Relation) { i.rels[name] = r }

// RemoveRelation deletes the named relation wholesale and returns it
// (nil if absent).
func (i *Instance) RemoveRelation(name string) *Relation {
	r := i.rels[name]
	delete(i.rels, name)
	return r
}

// FoldDelta folds the relation named delta into the resident relation
// full — creating the resident with the given arity if absent —
// removes delta from the instance, and returns the genuinely-new
// tuples as a relation named delta. A missing or empty delta folds as
// empty. This is the receiver side of a delta round: the shipped Δ
// fragment disappears into the resident full copy, and the returned
// sub-delta seeds the next derivation step.
func (i *Instance) FoldDelta(delta, full string, arity int) *Relation {
	d := i.RemoveRelation(delta)
	if d == nil || d.Len() == 0 {
		return NewRelation(delta, arity)
	}
	f := i.EnsureRelationSize(full, arity, d.Len())
	return f.AbsorbNew(d, delta)
}

// RelationNames returns the names of nonempty relations, sorted.
func (i *Instance) RelationNames() []string {
	out := make([]string, 0, len(i.rels))
	for name, r := range i.rels {
		if r.Len() > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of facts.
func (i *Instance) Len() int {
	n := 0
	for _, r := range i.rels {
		n += r.Len()
	}
	return n
}

// IsEmpty reports whether the instance holds no facts.
func (i *Instance) IsEmpty() bool { return i.Len() == 0 }

// Facts returns every fact in deterministic (relation, tuple) order.
// Instance-level enumeration is the serialization and routing path —
// experiment output, transducer message order, MPC initial placement —
// so it must be byte-stable across runs; unordered per-relation access
// for hot local computation is Relation.Each.
func (i *Instance) Facts() []Fact {
	out := make([]Fact, 0, i.Len())
	i.Each(func(f Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// SortedFacts returns every fact ordered by (relation, tuple). Facts
// already enumerates in that order; this name is kept for callers that
// want to state the ordering explicitly.
func (i *Instance) SortedFacts() []Fact {
	return i.Facts()
}

// Each calls fn for every fact in deterministic (relation, tuple)
// order; iteration stops if fn returns false.
func (i *Instance) Each(fn func(Fact) bool) {
	for _, name := range i.RelationNames() {
		for _, t := range i.rels[name].Tuples() {
			if !fn(Fact{Rel: name, Tuple: t}) {
				return
			}
		}
	}
}

// ADom returns adom(I), the set of values occurring in the instance.
func (i *Instance) ADom() ValueSet {
	s := make(ValueSet)
	for _, r := range i.rels {
		r.Each(func(t Tuple) bool {
			for _, v := range t {
				s.Add(v)
			}
			return true
		})
	}
	return s
}

// Clone returns a deep copy.
func (i *Instance) Clone() *Instance {
	out := NewInstanceSize(len(i.rels))
	for name, r := range i.rels {
		out.rels[name] = r.Clone()
	}
	return out
}

// Union returns a fresh instance with the facts of both i and j.
func (i *Instance) Union(j *Instance) *Instance {
	out := i.Clone()
	out.AddAll(j)
	return out
}

// Equal reports whether i and j contain exactly the same facts.
func (i *Instance) Equal(j *Instance) bool {
	if i.Len() != j.Len() {
		return false
	}
	for name, r := range i.rels {
		if r.Len() == 0 {
			continue
		}
		ro, ok := j.rels[name]
		if !ok || !r.Equal(ro) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every fact of i is in j.
func (i *Instance) SubsetOf(j *Instance) bool {
	ok := true
	i.Each(func(f Fact) bool {
		if !j.Contains(f) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Induced returns I|C = { f in I | adom(f) ⊆ C }, the subinstance
// induced by the value set C (Lemma 5.7 of the paper).
func (i *Instance) Induced(c ValueSet) *Instance {
	out := NewInstance()
	i.Each(func(f Fact) bool {
		if f.ADom().SubsetOf(c) {
			out.Add(f)
		}
		return true
	})
	return out
}

// Filter returns the subinstance of facts satisfying keep.
func (i *Instance) Filter(keep func(Fact) bool) *Instance {
	out := NewInstance()
	i.Each(func(f Fact) bool {
		if keep(f) {
			out.Add(f)
		}
		return true
	})
	return out
}

// String renders the instance as a sorted, comma-separated fact list
// with raw numeric values.
func (i *Instance) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for k, f := range i.SortedFacts() {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte('}')
	return b.String()
}

// StringWith renders the instance with symbolic names from d.
func (i *Instance) StringWith(d *Dict) string {
	var b strings.Builder
	b.WriteByte('{')
	for k, f := range i.SortedFacts() {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.StringWith(d))
	}
	b.WriteByte('}')
	return b.String()
}
