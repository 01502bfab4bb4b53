package pc

import (
	"fmt"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Receiver-side placement verification. The parallel-correctness
// framework reasons about *where facts are allowed to live*: a
// distribution policy P names, for every fact, the nodes responsible
// for it. That makes a fact sitting on a node outside its
// responsibility set a checkable integrity violation — the static
// counterpart of the MPC engine's per-round routing verification — and
// the check below is what the network runtimes run against hand-loaded
// or recovered horizontal fragments before trusting them.

// PlacementViolation is one node holding a fact its policy never
// placed there. Fact is the Fact.Less-minimal offender on that node,
// so repeated runs over the same illegal distribution accuse
// deterministically.
type PlacementViolation struct {
	Node policy.Node
	Fact rel.Fact
}

func (v *PlacementViolation) Error() string {
	return fmt.Sprintf("pc: node %d holds %v, which its distribution policy does not place there", v.Node, v.Fact)
}

// VerifyPlacement checks a horizontal distribution against its
// declared policy: every fact in parts[κ] must have κ in its
// responsibility set. It returns one violation per offending node —
// the Fact.Less-minimal illegal fact, nodes in ascending order — or
// nil when the distribution conforms. Completeness (every fact placed
// *somewhere*) is Distribute's job, not the receiver's: a node can
// only vouch for what it holds.
func VerifyPlacement(pol policy.Policy, parts []*rel.Instance) []*PlacementViolation {
	var out []*PlacementViolation
	n := pol.NumNodes()
	for κ := 0; κ < n && κ < len(parts); κ++ {
		if parts[κ] == nil {
			continue
		}
		var worst *rel.Fact
		parts[κ].Each(func(f rel.Fact) bool {
			if policy.Responsible(pol, κ, f) {
				return true
			}
			if worst == nil || f.Less(*worst) {
				g := f.Clone()
				worst = &g
			}
			return true
		})
		if worst != nil {
			out = append(out, &PlacementViolation{Node: κ, Fact: *worst})
		}
	}
	return out
}
