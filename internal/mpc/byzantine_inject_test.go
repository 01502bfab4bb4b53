package mpc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mpclogic/internal/rel"
)

// injectModel is a shard as plain sets: per destination the facts
// shipped there by key, with the logical counts beside them.
type injectModel struct {
	outs      []map[string]rel.Fact
	sent      []int
	deltaSent int
}

func modelOf(sh *Shard, p int) *injectModel {
	m := &injectModel{outs: make([]map[string]rel.Fact, p), sent: slices.Clone(sh.Sent), deltaSent: sh.DeltaSent}
	for d := range p {
		m.outs[d] = map[string]rel.Fact{}
		if sh.Outs[d] != nil {
			for _, f := range sh.Outs[d].Facts() {
				m.outs[d][f.Key()] = f
			}
		}
	}
	return m
}

// deliveries lists the model's (destination, fact) pairs off the
// source, by fact and then destination.
func (m *injectModel) deliveries(src int) []delivery {
	var out []delivery
	for d, facts := range m.outs {
		if d == src {
			continue
		}
		for _, f := range facts {
			out = append(out, delivery{dst: d, f: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].f.Compare(out[j].f); c != 0 {
			return c < 0
		}
		return out[i].dst < out[j].dst
	})
	return out
}

func (m *injectModel) take(dl delivery, delta bool) {
	delete(m.outs[dl.dst], dl.f.Key())
	m.sent[dl.dst]--
	if delta {
		m.deltaSent--
	}
}

// apply is applyByzEvent for Misroute and Omit restated by set
// arithmetic: the first Count deliveries are withheld, and a misrouted
// one lands on the first destination, cycling from a seeded start, that
// the round's contract (bruteLegal) forbids for it.
func (m *injectModel) apply(r Round, p, src int, ev ByzantineEvent) {
	rng := rand.New(rand.NewSource(ev.Seed))
	delta := map[string]bool{}
	for _, name := range r.DeltaRels {
		delta[name] = true
	}
	dels := m.deliveries(src)
	switch ev.Kind {
	case Misroute:
		moved := 0
		for _, dl := range dels {
			if moved >= ev.Count {
				break
			}
			start, bad := rng.Intn(p), -1
			for i := range p {
				if d := (start + i) % p; !bruteLegal(r, p, src, src+1, d, dl.f) {
					bad = d
					break
				}
			}
			if bad < 0 {
				continue
			}
			m.take(dl, false)
			m.outs[bad][dl.f.Key()] = dl.f
			m.sent[bad]++
			moved++
		}
	case Omit:
		for i := 0; i < len(dels) && i < ev.Count; i++ {
			m.take(dels[i], delta[dels[i].f.Rel])
		}
	}
}

// TestByzantineInjectionMatchesSetArithmetic holds the Misroute and
// Omit injectors to the set model above, on seeded random single-source
// shards of random rounds, one or two events at counts from none to
// every delivery, with and without Δ relations: the same facts in every
// outbox, the same Sent and DeltaSent. An outbox keeps the Each order
// of the facts it still holds from before, and re-applying the events
// to a freshly routed honest shard — what the audit does for a
// Persistent event — reproduces the result.
func TestByzantineInjectionMatchesSetArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := []int{-1, 0, 1, 2, 5, 1000}
	changed := map[ByzKind]int{}
	for trial := 0; trial < 400; trial++ {
		p := 2 + rng.Intn(5)
		src := rng.Intn(p)
		r := randomRound(rng, p)
		r.DeltaRels = [][]string{nil, {"R"}, {"R", "S"}}[rng.Intn(3)]
		local := rel.NewInstance()
		for k := 4 + rng.Intn(24); k > 0; k-- {
			name := []string{"R", "S"}[rng.Intn(2)]
			local.Add(rel.NewFact(name, rel.Value(rng.Intn(12)), rel.Value(rng.Intn(12))))
		}
		var events []ByzantineEvent
		for k := 1 + rng.Intn(2); k > 0; k-- {
			events = append(events, ByzantineEvent{
				Src: src, Kind: []ByzKind{Misroute, Omit}[rng.Intn(2)],
				Count: counts[rng.Intn(len(counts))], Seed: rng.Int63(), Persistent: true,
			})
		}
		route := func() Shard {
			sh, err := RouteSource(r, p, src, local)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return sh
		}
		honest, got, again := route(), route(), route()
		want := modelOf(&honest, p)
		for _, ev := range events {
			applyByzEvent(r, p, src, &got, ev, local)
			applyByzEvent(r, p, src, &again, ev, local)
			want.apply(r, p, src, ev)
		}
		if m := modelOf(&got, p); !slices.Equal(m.sent, want.sent) || m.deltaSent != want.deltaSent {
			t.Fatalf("trial %d %+v: Sent %v DeltaSent %d, the model %v and %d", trial, events, m.sent, m.deltaSent, want.sent, want.deltaSent)
		}
		for d := range p {
			facts := rel.NewInstance()
			if got.Outs[d] != nil {
				facts = got.Outs[d]
			}
			wantFacts := rel.NewInstance()
			for _, f := range want.outs[d] {
				wantFacts.Add(f)
			}
			if !facts.Equal(wantFacts) {
				t.Fatalf("trial %d %+v: outbox %d holds %v, the model %v", trial, events, d, facts, wantFacts)
			}
			if honest.Outs[d] == nil {
				continue
			}
			for _, name := range honest.Outs[d].RelationNames() {
				before, after := honest.Outs[d].Relation(name), facts.Relation(name)
				var kept, still []rel.Tuple
				before.Each(func(tu rel.Tuple) bool {
					if after != nil && after.Contains(tu) {
						kept = append(kept, tu)
					}
					return true
				})
				if after != nil {
					after.Each(func(tu rel.Tuple) bool {
						if before.Contains(tu) {
							still = append(still, tu)
						}
						return true
					})
				}
				if !slices.EqualFunc(kept, still, rel.Tuple.Equal) {
					t.Fatalf("trial %d %+v: outbox %d's %s reorders what it kept: %v, was %v", trial, events, d, name, still, kept)
				}
			}
		}
		if !shardEqual(&got, &again, p) {
			t.Fatalf("trial %d %+v: re-applying the events does not reproduce the shard", trial, events)
		}
		if !shardEqual(&got, &honest, p) {
			changed[events[0].Kind]++
		}
	}
	if changed[Misroute] < 50 || changed[Omit] < 50 {
		t.Fatalf("the oracle is nearly vacuous: %v", changed)
	}
}
