package mpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// lawShards is p sources' outboxes for p destinations, three ways of
// shipping a relation at once: Solo reaches destination d from source
// (d+1) mod p alone; Some from a random half of the sources; Shared
// from every source, out of a domain small enough that sources ship
// the same tuple (cross-source duplicates). A source may ship nothing
// to a destination at all (a nil outbox).
func lawShards(rng *rand.Rand, p int) []Shard {
	shards := make([]Shard, p)
	for w := range shards {
		shards[w] = Shard{Outs: make([]*rel.Instance, p), Sent: make([]int, p)}
		for d := 0; d < p; d++ {
			if rng.Intn(5) == 0 {
				continue
			}
			out := rel.NewInstance()
			if w == (d+1)%p {
				for k := 0; k < 1+rng.Intn(20); k++ {
					out.Add(rel.NewFact("Solo", rel.Value(w), rel.Value(d), rel.Value(k)))
				}
			}
			if rng.Intn(2) == 0 {
				for k := 0; k < rng.Intn(20); k++ {
					out.Add(rel.NewFact("Some", rel.Value(w*100+k)))
				}
			}
			for k := 0; k < 1+rng.Intn(30); k++ {
				out.Add(rel.NewFact("Shared", rel.Value(rng.Intn(6)), rel.Value(rng.Intn(6))))
			}
			shards[w].Outs[d], shards[w].Sent[d] = out, out.Len()
		}
	}
	return shards
}

// ownedLawShards routes lawShards' facts again, from the replicated
// layout they form — source w holds every fact lawShards has it ship,
// so a Shared fact sits on several sources — under an Owner, the least
// holder, and no Keep: the shards a repartition from a HyperCube layout
// builds, whose outboxes for one destination share no tuple. Solo facts
// go to their destination alone, so one source still ships that
// relation there; every other fact goes to two destinations.
func ownedLawShards(rng *rand.Rand, p int) []Shard {
	law := lawShards(rng, p)
	locals := make([]*rel.Instance, p)
	for w := range law {
		locals[w] = rel.NewInstance()
		for _, out := range law[w].Outs {
			if out != nil {
				locals[w].AddAll(out)
			}
		}
	}
	least := map[string]int{}
	for w := p - 1; w >= 0; w-- {
		locals[w].Each(func(f rel.Fact) bool {
			least[f.String()] = w
			return true
		})
	}
	round := Round{
		Name: "owned law",
		Route: RouterFunc(func(f rel.Fact) []int {
			if f.Rel == "Solo" {
				return []int{int(f.Tuple[1])}
			}
			h := 0
			for _, v := range f.Tuple {
				h += int(v)
			}
			return []int{h % p, (h + 1) % p}
		}),
		Owner: func(name string, _ int) func(rel.Tuple) int {
			return func(t rel.Tuple) int { return least[rel.Fact{Rel: name, Tuple: t}.String()] }
		},
	}
	shards := make([]Shard, p)
	for w := range shards {
		var err error
		if shards[w], err = RouteSource(round, p, w, locals[w]); err != nil {
			panic(err)
		}
	}
	return shards
}

// capacity is how many tuples r holds before it must grow: a peek at
// the capacity of the value arena rel does not export, in tuples.
func capacity(r *rel.Relation) int {
	return reflect.ValueOf(r).Elem().FieldByName("arena").Cap() / r.Arity
}

// hasTable reports whether r has built its hash table: a peek at the
// slots rel does not export.
func hasTable(r *rel.Relation) bool {
	return !reflect.ValueOf(r).Elem().FieldByName("slots").IsNil()
}

// TestMergeInboxIsMergeShards: the in-process inbox and the TCP inbox
// are one merge, whichever way a fragment arrives. For random shards at
// p ∈ {1, 3, 8} — lawShards, and lawShards routed under an Owner and no
// Keep (ownedLawShards) — MergeInbox over the held shards (the Local
// transport's merge; appended, with no table, for the owned input) and
// MergeInbox over the shards' frames (the TCP transport's) give every
// destination the same EncodeInstance bytes, received count and Each
// order of every relation. A relation one source ships is that source's
// outbox relation itself, not a copy; and no relation of a decoded
// inbox, nor any relation several sources ship, holds room for more
// tuples than its shippers' lengths sum to.
func TestMergeInboxIsMergeShards(t *testing.T) {
	inputs := []struct {
		name   string
		shards func(*rand.Rand, int) []Shard
	}{{"law", lawShards}, {"owned", ownedLawShards}}
	for _, in := range inputs {
		for _, p := range []int{1, 3, 8} {
			for seed := int64(0); seed < 20; seed++ {
				name := fmt.Sprintf("%s/p=%d/seed=%d", in.name, p, seed)
				shards := in.shards(rand.New(rand.NewSource(seed)), p)
				owned := in.name == "owned"
				if owned != shards[0].owned {
					t.Fatalf("%s: shard 0 owned=%v", name, shards[0].owned)
				}
				frames := make([][]Frame, p)
				for w := range shards {
					frames[w] = ShardFrames(7, w, shards[w], -1)
				}
				// shipped[d][name] sums the lengths of the relation's copies
				// bound for d; shippers[d][name] counts the sources shipping it.
				shipped := make([]map[string]int, p)
				shippers := make([]map[string]int, p)
				for d := 0; d < p; d++ {
					shipped[d], shippers[d] = map[string]int{}, map[string]int{}
					for w := range shards {
						if out := shards[w].Outs[d]; out != nil {
							for _, n := range out.RelationNames() {
								shipped[d][n] += out.Relation(n).Len()
								shippers[d][n]++
							}
						}
					}
				}
				inboxes, received, err := NewLocalTransport().Exchange("law", p, shards)
				if err != nil {
					t.Fatalf("%s: local exchange: %v", name, err)
				}
				for d := 0; d < p; d++ {
					for _, rn := range inboxes[d].RelationNames() {
						r := inboxes[d].Relation(rn)
						if c := capacity(r); shippers[d][rn] > 1 && c > shipped[d][rn] {
							t.Errorf("%s: destination %d: merged %s has room for %d tuples, its %d shippers ship %d", name, d, rn, c, shippers[d][rn], shipped[d][rn])
						}
						if owned && shippers[d][rn] > 1 && hasTable(r) {
							t.Errorf("%s: destination %d: owned %s, shipped by %d sources, built a table", name, d, rn, shippers[d][rn])
						}
						for w := range shards {
							if out := shards[w].Outs[d]; shippers[d][rn] == 1 && out != nil && out.Relation(rn) != nil && out.Relation(rn) != r {
								t.Errorf("%s: destination %d: %s, shipped by source %d alone, was copied", name, d, rn, w)
							}
						}
					}
					inbox, n, err := MergeInbox(d, p, nil, func(w int) (Frame, error) { return frames[w][d], nil })
					if err != nil {
						t.Fatalf("%s: MergeInbox(%d): %v", name, d, err)
					}
					if n != received[d] || !bytes.Equal(rel.EncodeInstance(inbox), rel.EncodeInstance(inboxes[d])) {
						t.Errorf("%s: destination %d: frames merge to %d facts, received %d; held outboxes to %d facts, received %d",
							name, d, inbox.Len(), n, inboxes[d].Len(), received[d])
					}
					for _, rn := range inbox.RelationNames() {
						if c := capacity(inbox.Relation(rn)); c > shipped[d][rn] {
							t.Errorf("%s: destination %d: decoded %s has room for %d tuples, its shippers ship %d", name, d, rn, c, shipped[d][rn])
						}
						if g, w := eachOrder(inbox.Relation(rn)), eachOrder(inboxes[d].Relation(rn)); g != w {
							t.Errorf("%s: destination %d: %s enumerates %s from frames, %s from held outboxes", name, d, rn, g, w)
						}
					}
				}
			}
		}
	}
}

// unionInOrder is the plain reference merge: frags unioned one after
// the other into a fresh instance, with no sizing and no adoption.
func unionInOrder(frags []*rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	for _, frag := range frags {
		for _, name := range frag.RelationNames() {
			r := frag.Relation(name)
			out.EnsureRelation(name, r.Arity).UnionWith(r)
		}
	}
	return out
}

// TestOwnOutboxMergesInPlace: MergeInbox — every frame decoded
// straight into the inbox, and the own outbox, when held, merged in
// process — gives the inbox of the decode-everything path: each frame
// decoded on its own, then unioned in shard order. For random shards at
// p ∈ {1, 3, 8} (cross-source duplicates included), with and without
// the own shard held — pull never asked for it, no frame built for it —
// the received count, EncodeInstance bytes and per-relation Each order
// are the reference's.
func TestOwnOutboxMergesInPlace(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for seed := int64(0); seed < 20; seed++ {
			name := fmt.Sprintf("p=%d/seed=%d", p, seed)
			shards := lawShards(rand.New(rand.NewSource(seed)), p)
			frames := make([][]Frame, p)
			for w := range shards {
				frames[w] = ShardFrames(7, w, shards[w], -1)
			}
			for d := 0; d < p; d++ {
				for _, f := range ShardFrames(7, d, shards[d], d) {
					if int(f.Dst) == d {
						t.Fatalf("%s: shard %d built a frame for its own destination", name, d)
					}
				}
				frags := make([]*rel.Instance, p)
				wantN := 0
				for w := range frags {
					var err error
					if frags[w], err = rel.DecodeInstance(frames[w][d].Payload); err != nil {
						t.Fatal(err)
					}
					wantN += int(frames[w][d].Sent)
				}
				want := unionInOrder(frags)
				own := func(w int) *Shard {
					if w == d {
						return &shards[d]
					}
					return nil
				}
				for _, held := range []func(int) *Shard{nil, own} {
					got, gotN, err := MergeInbox(d, p, held, func(w int) (Frame, error) {
						if held != nil && w == d {
							t.Fatalf("%s: destination %d pulled its own fragment", name, d)
						}
						return frames[w][d], nil
					})
					if err != nil {
						t.Fatalf("%s: MergeInbox(%d, own held %v): %v", name, d, held != nil, err)
					}
					if gotN != wantN || !bytes.Equal(rel.EncodeInstance(got), rel.EncodeInstance(want)) {
						t.Errorf("%s: destination %d, own held %v: %d received, %d facts; decode-everything %d received, %d facts",
							name, d, held != nil, gotN, got.Len(), wantN, want.Len())
					}
					for _, rn := range want.RelationNames() {
						if g, w := eachOrder(got.Relation(rn)), eachOrder(want.Relation(rn)); g != w {
							t.Errorf("%s: destination %d, own held %v: %s enumerates %s, decode-everything %s", name, d, held != nil, rn, g, w)
						}
					}
				}
			}
		}
	}
}

// eachOrder renders r's tuples in Each order; nil renders empty.
func eachOrder(r *rel.Relation) string {
	var b strings.Builder
	if r != nil {
		r.Each(func(t rel.Tuple) bool {
			fmt.Fprint(&b, t)
			return true
		})
	}
	return b.String()
}
