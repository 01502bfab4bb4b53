package mpc

import (
	"bytes"
	"errors"
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

// TestMergeInboxRefusesArityClash: a relation two shards ship at two
// arities is an *arityError naming the later shard, the relation and
// both arities — never a panic — whichever of the two is held in
// process and whichever comes first in shard order.
func TestMergeInboxRefusesArityClash(t *testing.T) {
	d := rel.NewDict()
	binary := rel.MustInstance(d, "R(a,b)", "R(b,c)")
	ternary := rel.MustInstance(d, "R(a,b,c)")
	for _, c := range []struct {
		name        string
		heldShard   int
		held, other *rel.Instance
	}{
		{"pulled before held", 1, binary, ternary},
		{"held before pulled", 0, binary, ternary},
		{"pulled before held, wider held", 1, ternary, binary},
		{"held before pulled, wider held", 0, ternary, binary},
	} {
		sh := Shard{Outs: []*rel.Instance{nil, c.held}, Sent: []int{0, c.held.Len()}}
		frame := Frame{Shard: uint32(1 - c.heldShard), Dst: 1, Sent: uint32(c.other.Len()), Payload: rel.EncodeInstance(c.other)}
		_, _, err := MergeInbox(1, 2, func(w int) *Shard {
			if w == c.heldShard {
				return &sh
			}
			return nil
		}, func(int) (Frame, error) { return frame, nil })
		first, later := c.held, c.other
		if c.heldShard == 1 {
			first, later = later, first
		}
		want := &arityError{dst: 1, shard: 1, rel: "R", arity: later.Relation("R").Arity, first: first.Relation("R").Arity}
		var ae *arityError
		if !errors.As(err, &ae) || *ae != *want {
			t.Errorf("%s: MergeInbox returned %v, want %v", c.name, err, want)
		}
	}
}

// FuzzMergeInbox drives MergeInbox with fragments at random shard
// positions, each held in process as an outbox or pulled as a frame
// whose payload is either the encoding of a fragment or arbitrary
// bytes. It never panics. When every fragment decodes and no relation
// comes at two arities, the merge succeeds, its received count sums the
// Sent fields, and the inbox is the shard-order UnionWith of the
// fragments in EncodeInstance bytes and in every relation's Each order;
// when they disagree on an arity it is an *arityError; when a payload
// does not decode it is an error.
func FuzzMergeInbox(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 0, 1, 2, 3, 1, 1, 4, 6, 1, 2, 3, 4}, []byte{})
	f.Add([]byte{3, 1, 2, 2, 5, 0, 0, 1, 1, 2, 1, 7, 7, 0, 2, 2, 3, 2}, rel.EncodeInstance(testInstance()))
	f.Add([]byte{1, 2}, encodeFrame(testFrame()))
	f.Add([]byte{4, 0, 1, 1, 1, 0, 2, 0, 1, 1, 1, 0, 1, 9, 1, 1, 2, 1, 1, 9}, []byte("\x00\x01garbage"))
	f.Fuzz(func(t *testing.T, script, raw []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		nshards := 1 + next()%4
		dst := next() % nshards
		frags := make([]*rel.Instance, nshards) // nil: a payload that does not decode
		held := make([]*Shard, nshards)
		payloads := make([][]byte, nshards)
		sent := 0
		for w := range frags {
			mode := next() % 3
			if mode == 2 {
				payloads[w] = raw
				if frag, err := rel.DecodeInstance(raw); err == nil {
					frags[w] = frag
				}
				sent += w
				continue
			}
			// Relations R and S, each at an arity of its own in this
			// fragment, over a domain small enough that shards meet.
			arity := map[string]int{"R": 1 + next()%3, "S": 1 + next()%3}
			frag := rel.NewInstance()
			for k := next() % 8; k > 0; k-- {
				name := []string{"R", "S"}[next()%2]
				t := make(rel.Tuple, arity[name])
				for j := range t {
					t[j] = rel.Value(next() % 4)
				}
				frag.Add(rel.Fact{Rel: name, Tuple: t})
			}
			frags[w] = frag
			if mode == 0 {
				held[w] = &Shard{Outs: make([]*rel.Instance, nshards), Sent: make([]int, nshards)}
				held[w].Outs[dst], held[w].Sent[dst] = frag, frag.Len()
				sent += frag.Len()
			} else {
				payloads[w] = rel.EncodeInstance(frag)
				sent += w
			}
		}
		decodes, clash := true, false
		arities := map[string]int{}
		for _, frag := range frags {
			if frag == nil {
				decodes = false
				continue
			}
			for _, name := range frag.RelationNames() {
				a := frag.Relation(name).Arity
				if first, ok := arities[name]; ok && first != a {
					clash = true
				} else if !ok {
					arities[name] = a
				}
			}
		}
		var want *rel.Instance
		if decodes && !clash {
			want = unionInOrder(frags)
		}
		inbox, n, err := MergeInbox(dst, nshards, func(w int) *Shard { return held[w] }, func(w int) (Frame, error) {
			return Frame{Shard: uint32(w), Dst: uint32(dst), Sent: uint32(w), Payload: payloads[w]}, nil
		})
		var ae *arityError
		switch {
		case !decodes:
			if err == nil {
				t.Fatalf("a payload that does not decode merged into %v", inbox)
			}
		case clash:
			if !errors.As(err, &ae) {
				t.Fatalf("fragments shipping a relation at two arities: %v, want an *arityError", err)
			}
		case err != nil:
			t.Fatalf("fragments that decode at one arity each: %v", err)
		case n != sent || !bytes.Equal(rel.EncodeInstance(inbox), rel.EncodeInstance(want)):
			t.Fatalf("merged %d facts, received %d; shard-order union %d facts, sent %d", inbox.Len(), n, want.Len(), sent)
		default:
			for _, name := range want.RelationNames() {
				if g, w := eachOrder(inbox.Relation(name)), eachOrder(want.Relation(name)); g != w {
					t.Fatalf("%s enumerates %s, the shard-order union %s", name, g, w)
				}
			}
		}
	})
}
