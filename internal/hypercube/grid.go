// Package hypercube implements the single-round MPC algorithms of
// Section 3.1 of Neven (PODS 2016): the repartition join and grouping
// join of Example 3.1, and the Shares/HyperCube algorithm of
// Afrati-Ullman and Beame-Koutris-Suciu (Example 3.2), including share
// optimization from the fractional-edge-packing LP and a heavy-hitter
// aware variant in the spirit of SharesSkew.
package hypercube

import (
	"fmt"
	"slices"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// Grid is a HyperCube share grid for a conjunctive query: every server
// is a point in the grid [0,Shares[0]) × … × [0,Shares[k-1]), one
// dimension per query variable. A fact matching a body atom is
// replicated to every grid point consistent with hashing the values
// bound to the atom's variables.
//
// NewGrid compiles the query into per-atom routing plans, so the
// exported fields are read-only once the grid is built.
type Grid struct {
	Query  *cq.CQ
	Vars   []string // grid dimensions, sorted for determinism
	Shares []int    // share per dimension, parallel to Vars
	Seed   uint64

	dims   map[string]int // variable → dimension index
	stride []int          // mixed-radix strides for server ids
	p      int            // total servers = Π Shares
	rels   []RelationGrid // one per relation and arity of the body, in order of first atom
}

// RelationGrid is a grid restricted to the facts of one relation at one
// arity: the routing plans of the body atoms over it, in body order. A
// caller that routes a whole relation resolves it once (Grid.Relation)
// and asks it of each tuple, so no fact is matched against the plans of
// atoms over other relations, nor looked up by name. The zero value is
// the restriction to a relation no atom is over: every tuple goes
// nowhere.
type RelationGrid struct {
	rel   string
	arity int
	plans []atomPlan
}

// atomPlan is one body atom compiled for routing: the checks and hashes
// a fact's tuple goes through to find the corner of the sub-grid the
// atom replicates it to (ops), and that sub-grid's shape (offsets).
type atomPlan struct {
	ops []argOp
	// offsets lists, ascending, the server ids of the free sub-grid
	// relative to its corner: every combination of coordinates in the
	// dimensions the atom does not bind. Lexicographic coordinates are
	// numeric order in the mixed-radix id scheme, so corner+offsets[i]
	// enumerates the atom's destinations in ascending order, and
	// offsets[0] is 0: the corner is the least of them.
	offsets []int
	// dests is the atom's destination table: for the corner of rank r —
	// its coordinates in the hashed dimensions read as one mixed-radix
	// number, in op order, which corner returns — the block
	// dests[r*k : r*k+k], k = len(offsets), is corner+offsets. There is
	// one corner per combination of hashed coordinates and k servers per
	// corner, so the table has one entry per server: p in all.
	dests []int
	// room bounds the destinations of a fact matching this atom and any
	// later atom of its relation grid, so Targets sizes the union it
	// builds for a fact several atoms match at the first of them.
	room int
}

// argOp is what one argument position of an atom asks of a tuple.
// Positions that ask nothing — the first occurrence of a variable whose
// dimension has share 1, which always hashes to coordinate 0 — compile
// to no op at all.
type argOp struct {
	kind   argKind
	pos    int       // tuple position the op reads
	val    rel.Value // argConst: the constant the position must hold
	first  int       // argRepeat: earlier position holding the same variable
	salt   uint64    // argHash: seed and dimension, folded in before the avalanche
	share  uint64    // argHash: the dimension's share
	stride int       // argHash: the dimension's stride
}

type argKind uint8

const (
	argConst  argKind = iota // position must equal val
	argRepeat                // position must equal position first
	argHash                  // position's hash picks the coordinate in one dimension
)

// NewGrid builds a grid with explicit shares, given per variable.
// Missing variables default to share 1.
func NewGrid(q *cq.CQ, shares map[string]int, seed uint64) (*Grid, error) {
	if q.HasNegation() {
		return nil, fmt.Errorf("hypercube: CQ¬ not supported by single-round HyperCube")
	}
	g := &Grid{Query: q, Seed: seed, dims: map[string]int{}}
	vars := varsOfBody(q)
	slices.Sort(vars)
	g.Vars = vars
	g.Shares = make([]int, len(vars))
	for i, v := range vars {
		s := shares[v]
		if s <= 0 {
			s = 1
		}
		g.Shares[i] = s
		g.dims[v] = i
	}
	g.stride = make([]int, len(vars))
	p := 1
	for i := len(vars) - 1; i >= 0; i-- {
		g.stride[i] = p
		p *= g.Shares[i]
	}
	g.p = p
	for _, a := range q.Body {
		i := slices.IndexFunc(g.rels, func(r RelationGrid) bool { return r.rel == a.Rel && r.arity == len(a.Args) })
		if i < 0 {
			i = len(g.rels)
			g.rels = append(g.rels, RelationGrid{rel: a.Rel, arity: len(a.Args)})
		}
		g.rels[i].plans = append(g.rels[i].plans, g.compile(a))
	}
	for _, r := range g.rels {
		for i := range r.plans {
			for _, later := range r.plans[i:] {
				r.plans[i].room += len(later.offsets)
			}
		}
	}
	return g, nil
}

// compile builds atom a's routing plan. The per-dimension hash
// functions are those of the grid's definition: the value's tuple hash
// with the seed and the dimension index folded in before a final
// avalanche, so they behave independently.
func (g *Grid) compile(a cq.Atom) atomPlan {
	pl := atomPlan{offsets: []int{0}}
	bound := make([]bool, len(g.Shares))
	for i, t := range a.Args {
		if !t.IsVar() {
			pl.ops = append(pl.ops, argOp{kind: argConst, pos: i, val: t.Const})
			continue
		}
		first := i
		for j := 0; j < i; j++ {
			if a.Args[j].IsVar() && a.Args[j].Var == t.Var {
				first = j
				break
			}
		}
		if first < i {
			pl.ops = append(pl.ops, argOp{kind: argRepeat, pos: i, first: first})
			continue
		}
		dim := g.dims[t.Var]
		bound[dim] = true
		if g.Shares[dim] > 1 {
			pl.ops = append(pl.ops, argOp{
				kind:   argHash,
				pos:    i,
				salt:   g.Seed ^ (uint64(dim+1) * 0x9e3779b97f4a7c15),
				share:  uint64(g.Shares[dim]),
				stride: g.stride[dim],
			})
		}
	}
	// Dimensions run from most to least significant, so extending every
	// offset by each coordinate in turn keeps the list ascending.
	for dim, share := range g.Shares {
		if bound[dim] || share == 1 {
			continue
		}
		next := make([]int, 0, len(pl.offsets)*share)
		for _, off := range pl.offsets {
			for c := 0; c < share; c++ {
				next = append(next, off+c*g.stride[dim])
			}
		}
		pl.offsets = next
	}
	// The table, rank by rank: the last hashed op is the least
	// significant digit of a rank, as corner accumulates it.
	corners := 1
	for _, op := range pl.ops {
		if op.kind == argHash {
			corners *= int(op.share)
		}
	}
	pl.dests = make([]int, 0, corners*len(pl.offsets))
	for r := 0; r < corners; r++ {
		id, rest := 0, r
		for i := len(pl.ops) - 1; i >= 0; i-- {
			if op := &pl.ops[i]; op.kind == argHash {
				id += rest % int(op.share) * op.stride
				rest /= int(op.share)
			}
		}
		for _, off := range pl.offsets {
			pl.dests = append(pl.dests, id+off)
		}
	}
	return pl
}

// corner matches tuple t — of the plan's relation and arity — against
// the plan, returning the server id of the sub-grid corner its bound
// variables hash to and that corner's rank in dests, or ok=false when t
// cannot instantiate the atom (constant or repeated-variable mismatch).
// It is the one matcher: RelationGrid's Targets and First differ only in
// what they do with the corners.
func (pl *atomPlan) corner(t rel.Tuple) (id, rank int, ok bool) {
	for i := range pl.ops {
		op := &pl.ops[i]
		v := t[op.pos]
		switch op.kind {
		case argConst:
			if v != op.val {
				return 0, 0, false
			}
		case argRepeat:
			if v != t[op.first] {
				return 0, 0, false
			}
		case argHash:
			c := int(rel.Mix64((rel.Tuple{v}).Hash()^op.salt) % op.share)
			id += c * op.stride
			rank = rank*int(op.share) + c
		}
	}
	return id, rank, true
}

// block returns the destinations of the corner of rank r, ascending,
// capped at their length so that a caller's append copies.
func (pl *atomPlan) block(r int) []int {
	k := len(pl.offsets)
	return pl.dests[r*k : r*k+k : r*k+k]
}

// varsOfBody returns the distinct variables of the positive body.
func varsOfBody(q *cq.CQ) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range q.Body {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// P returns the number of servers the grid uses (the product of the
// shares).
func (g *Grid) P() int { return g.p }

// Relation returns the grid restricted to the facts of relation name at
// the given arity: the zero RelationGrid, which routes every tuple
// nowhere, when no body atom is over it.
func (g *Grid) Relation(name string, arity int) RelationGrid {
	for _, r := range g.rels {
		if r.rel == name && r.arity == arity {
			return r
		}
	}
	return RelationGrid{}
}

// Empty reports whether no body atom is over the relation, so that every
// tuple of it goes nowhere.
func (r RelationGrid) Empty() bool { return len(r.plans) == 0 }

// Targets returns the destination servers for a fact, ascending: the
// union over all body atoms of the fact's relation of the grid points
// consistent with the hashed bindings. Facts that match no atom (wrong
// relation or arity, constant mismatch, repeated-variable mismatch) go
// nowhere. Targets is called concurrently by the MPC communication
// phase, so it keeps no scratch state on the grid. It is
// g.Relation(f.Rel, len(f.Tuple)).Targets(f.Tuple); see there.
func (g *Grid) Targets(f rel.Fact) []int {
	return g.Relation(f.Rel, len(f.Tuple)).Targets(f.Tuple)
}

// Targets returns the destination servers of the fact with tuple t, as
// Grid.Targets. One atom's destinations are already ascending and
// distinct: a tuple one atom matches gets that corner's block of the
// atom's destination table, without an allocation — read-only, like
// every Route result, and capped at its length so that a caller's
// append copies. Only a tuple several atoms match (a self-join) gets a
// list of its own, sorted and compacted.
func (r RelationGrid) Targets(t rel.Tuple) []int {
	var first *atomPlan
	var one, out []int
	for i := range r.plans {
		pl := &r.plans[i]
		_, rank, ok := pl.corner(t)
		switch {
		case !ok:
		case first == nil:
			first, one = pl, pl.block(rank)
		case out == nil:
			out = append(append(make([]int, 0, first.room), one...), pl.block(rank)...)
		default:
			out = append(out, pl.block(rank)...)
		}
	}
	if out == nil {
		return one
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// First returns Targets(f)[0], the least destination of f, and
// ok=false when f goes nowhere — without allocating. It is
// g.Relation(f.Rel, len(f.Tuple)).First(f.Tuple); see there.
func (g *Grid) First(f rel.Fact) (server int, ok bool) {
	return g.Relation(f.Rel, len(f.Tuple)).First(f.Tuple)
}

// First returns Targets(t)[0] and ok=false when t goes nowhere, without
// allocating: an atom's offsets ascend from 0, so its least destination
// is its corner, and the least over all matching atoms is the least
// corner. It is what makes "the smallest server holding a copy" cheap
// to ask of every copy, which is how a layout that is this grid's image
// elects one owner per fact (mpc.Round.Owner).
func (r RelationGrid) First(t rel.Tuple) (server int, ok bool) {
	for i := range r.plans {
		if corner, _, matched := r.plans[i].corner(t); matched && (!ok || corner < server) {
			server, ok = corner, true
		}
	}
	return server, ok
}

// Route implements mpc.Router and, with NumNodes, policy.Policy: the
// grid is the distribution policy of its one-round algorithm.
func (g *Grid) Route(f rel.Fact) []int { return g.Targets(f) }

// RouteRelation implements mpc.RelationRouter: the route of every tuple
// of relation name at the given arity, resolved once.
func (g *Grid) RouteRelation(name string, arity int) func(rel.Tuple) []int {
	return g.Relation(name, arity).Targets
}

// NumNodes implements policy.Policy.
func (g *Grid) NumNodes() int { return g.p }

// ReplicationOf returns how many servers a fact of the given atom is
// replicated to: the product of shares of the dimensions the atom does
// not bind (e.g. α_z for R(x,y) in the triangle grid of Example 3.2).
func (g *Grid) ReplicationOf(a cq.Atom) int {
	boundDims := map[int]bool{}
	for _, v := range a.Vars() {
		boundDims[g.dims[v]] = true
	}
	r := 1
	for i, s := range g.Shares {
		if !boundDims[i] {
			r *= s
		}
	}
	return r
}

func (g *Grid) String() string {
	var b []byte
	b = append(b, "hypercube["...)
	for i, v := range g.Vars {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s:%d", v, g.Shares[i])...)
	}
	b = append(b, ']')
	return string(b)
}
