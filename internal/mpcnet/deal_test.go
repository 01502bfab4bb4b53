package mpcnet

import (
	"bytes"
	"fmt"
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// TestDealIsRoundRobinEncoded holds the coordinator's deal to the rule
// it encodes: every share is byte for byte EncodeInstance of what
// mpc.DealRoundRobin puts on that server. The workloads carry several
// relations, so the round-robin position carries across relation
// boundaries, and the sizes include p > |input|, where some shares are
// empty instances. Each input is dealt as generated and with every
// relation stored in descending order, so both ways the deal reads a
// sorted enumeration — off an ascending arena, or sorted — are held.
func TestDealIsRoundRobinEncoded(t *testing.T) {
	for _, name := range []string{"triangle", "graph", "chain"} {
		w, err := WorkloadFor(name, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, 7, 100, 20000} {
			generated := w.gen(ProgramSpec{M: m, Seed: 7})
			descending := rel.NewInstance()
			for _, rn := range generated.RelationNames() {
				r := generated.Relation(rn)
				d := descending.EnsureRelation(rn, r.Arity)
				for ts, i := r.Tuples(), r.Len()-1; i >= 0; i-- {
					d.Add(ts[i])
				}
			}
			for order, input := range []*rel.Instance{generated, descending} {
				for _, p := range []int{1, 3, 4, 8} {
					t.Run(fmt.Sprintf("%s/m=%d/order=%d/p=%d", name, m, order, p), func(t *testing.T) {
						parts := make([]*rel.Instance, p)
						for i := range parts {
							parts[i] = rel.NewInstance()
						}
						mpc.DealRoundRobin(input, parts, 0)
						got := deal(input, p)
						if len(got) != p {
							t.Fatalf("%d shares, want %d", len(got), p)
						}
						for i, part := range parts {
							if want := rel.EncodeInstance(part); !bytes.Equal(got[i], want) {
								t.Errorf("share %d of %d facts: %d bytes differ from the round-robin part's %d (holding %d facts)",
									i, input.Len(), len(got[i]), len(want), part.Len())
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkDeal prices the coordinator's deal on BenchmarkRunBulk's
// input: every share of one HyperCube round of triangle facts, encoded.
func BenchmarkDeal(b *testing.B) {
	built, err := Build(ProgramSpec{Program: "hypercube", P: 4, M: 20000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deal(built.Input, built.P)
	}
}
