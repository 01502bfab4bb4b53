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

// capacity is how many tuples r holds before it must grow: a peek at
// the capacity of the value arena rel does not export, in tuples.
func capacity(r *rel.Relation) int {
	return reflect.ValueOf(r).Elem().FieldByName("arena").Cap() / r.Arity
}

// TestMergeInboxIsMergeShards: the TCP inbox and the in-process inbox
// are one merge. For random shards at p ∈ {1, 3, 8}, MergeInbox over
// the shards' frames gives every destination mergeShards' inbox (as
// sets) and received count; a relation one source ships is that
// source's decoded relation itself, not a copy; and no relation of a
// decoded inbox, nor any relation several sources ship, holds room for
// more tuples than its shippers' lengths sum to.
func TestMergeInboxIsMergeShards(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for seed := int64(0); seed < 20; seed++ {
			name := fmt.Sprintf("p=%d/seed=%d", p, seed)
			shards := lawShards(rand.New(rand.NewSource(seed)), p)
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
			inboxes, received, err := mergeShards("law", p, shards)
			if err != nil {
				t.Fatalf("%s: mergeShards: %v", name, err)
			}
			for d := 0; d < p; d++ {
				inbox, n, err := MergeInbox(d, p, nil, func(w int) (Frame, error) { return frames[w][d], nil })
				if err != nil {
					t.Fatalf("%s: MergeInbox(%d): %v", name, d, err)
				}
				if !inbox.Equal(inboxes[d]) || n != received[d] {
					t.Errorf("%s: destination %d: MergeInbox %d facts, received %d; mergeShards %d facts, received %d",
						name, d, inbox.Len(), n, inboxes[d].Len(), received[d])
				}
				for _, rn := range inbox.RelationNames() {
					if c := capacity(inbox.Relation(rn)); c > shipped[d][rn] {
						t.Errorf("%s: destination %d: decoded %s has room for %d tuples, its shippers ship %d", name, d, rn, c, shipped[d][rn])
					}
				}
				for _, rn := range inboxes[d].RelationNames() {
					if c := capacity(inboxes[d].Relation(rn)); shippers[d][rn] > 1 && c > shipped[d][rn] {
						t.Errorf("%s: destination %d: merged %s has room for %d tuples, its %d shippers ship %d", name, d, rn, c, shippers[d][rn], shipped[d][rn])
					}
				}

				frags := make([]*rel.Instance, p)
				for w := range frags {
					if frags[w], err = rel.DecodeInstance(frames[w][d].Payload); err != nil {
						t.Fatal(err)
					}
				}
				merged := mergeOutboxes(p, false, func(w int) *rel.Instance { return frags[w] })
				for w, frag := range frags {
					for _, rn := range frag.RelationNames() {
						if shippers[d][rn] == 1 && merged.Relation(rn) != frag.Relation(rn) {
							t.Errorf("%s: destination %d: %s, shipped by source %d alone, was copied", name, d, rn, w)
						}
					}
				}
			}
		}
	}
}

// TestOwnOutboxMergesInPlace: MergeInbox — every frame decoded
// straight into the inbox, and the own outbox, when handed over, merged
// in process — gives the inbox of the decode-everything path: each
// frame decoded on its own, then mergeOutboxes. For random shards at
// p ∈ {1, 3, 8} (cross-source duplicates included), with and without
// the own shard in place — fetch never asked for it, no frame built for
// it — the received count, EncodeInstance bytes and per-relation Each
// order are the reference's.
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
				want := mergeOutboxes(p, false, func(w int) *rel.Instance { return frags[w] })
				for _, own := range []*Shard{nil, &shards[d]} {
					got, gotN, err := MergeInbox(d, p, own, func(w int) (Frame, error) {
						if own != nil && w == d {
							t.Fatalf("%s: destination %d fetched its own fragment", name, d)
						}
						return frames[w][d], nil
					})
					if err != nil {
						t.Fatalf("%s: MergeInbox(%d, own %v): %v", name, d, own != nil, err)
					}
					if gotN != wantN || !bytes.Equal(rel.EncodeInstance(got), rel.EncodeInstance(want)) {
						t.Errorf("%s: destination %d, own %v: %d received, %d facts; decode-everything %d received, %d facts",
							name, d, own != nil, gotN, got.Len(), wantN, want.Len())
					}
					for _, rn := range want.RelationNames() {
						if g, w := eachOrder(got.Relation(rn)), eachOrder(want.Relation(rn)); g != w {
							t.Errorf("%s: destination %d, own %v: %s enumerates %s, decode-everything %s", name, d, own != nil, rn, g, w)
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
