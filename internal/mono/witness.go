package mono

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// The paper's separating witnesses of Figure 2, over the schema E/2:
// each is in its class and not in the one above.

// Triangles is in M.
var Triangles = witnessCQ("H(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x")

// OpenTriangles (Example 5.4's query) is in Mdistinct ∖ M.
var OpenTriangles = witnessCQ("H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")

func witnessCQ(src string) Query {
	q := cq.MustParse(rel.NewDict(), src)
	return func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
}

// NotTC is Q¬TC of Examples 5.6/5.10, in Mdisjoint ∖ Mdistinct: the
// complement of the transitive closure of E over adom(I), as NTC
// facts.
func NotTC(i *rel.Instance) *rel.Instance {
	reach := map[[2]rel.Value]bool{}
	adom := i.ADom().Sorted()
	if e := i.Relation("E"); e != nil {
		e.Each(func(t rel.Tuple) bool {
			reach[[2]rel.Value{t[0], t[1]}] = true
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for ab := range reach {
			for _, c := range adom {
				if reach[[2]rel.Value{ab[1], c}] && !reach[[2]rel.Value{ab[0], c}] {
					reach[[2]rel.Value{ab[0], c}] = true
					changed = true
				}
			}
		}
	}
	out := rel.NewInstance()
	for _, a := range adom {
		for _, b := range adom {
			if !reach[[2]rel.Value{a, b}] {
				out.Add(rel.NewFact("NTC", a, b))
			}
		}
	}
	return out
}
