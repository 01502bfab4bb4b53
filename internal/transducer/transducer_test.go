package transducer

import (
	"errors"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// triangles is the monotone triangle query of Example 5.1(1).
func triangles(d *rel.Dict) Query {
	q := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x")
	return func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
}

// openTriangles is the non-monotone query of Example 5.1(2).
func openTriangles(d *rel.Dict) Query {
	q := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	return func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
}

// hashParts distributes an instance over p nodes by fact hash.
func hashParts(i *rel.Instance, p int) []*rel.Instance {
	pol := &policy.Hash{Nodes: p}
	return policy.Distribute(pol, i)
}

// Example 5.1(1): the naive broadcast program computes the triangle
// query on every network size, distribution, and message schedule.
func TestExample51MonotoneBroadcast(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(12, 30, 3)
	want := q(g)
	for _, p := range []int{1, 2, 5} {
		for seed := int64(0); seed < 5; seed++ {
			n := New(p, func() Program { return MonotoneBroadcast(q) }, WithSeed(seed))
			if err := n.LoadParts(hashParts(g, p)); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Run(); err != nil {
				t.Fatal(err)
			}
			if !n.Output().Equal(want) {
				t.Fatalf("p=%d seed=%d: output %d facts, want %d", p, seed, n.Output().Len(), want.Len())
			}
		}
	}
}

// Example 5.1(2), first half: naive broadcast is WRONG for the
// non-monotone open-triangle query — some run outputs a fact not in
// Q(I) (a node outputs an "open" triangle before the closing edge
// arrives). This is the failure CALM predicts.
func TestExample51NaiveBroadcastUnsoundForNonMonotone(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)") // closed triangle: Q(I) has no (a,b,c)
	want := q(g)
	unsound := false
	for seed := int64(0); seed < 20 && !unsound; seed++ {
		n := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(seed))
		parts := []*rel.Instance{
			rel.MustInstance(d, "E(a,b)"),
			rel.MustInstance(d, "E(b,c)"),
			rel.MustInstance(d, "E(c,a)"),
		}
		if err := n.LoadParts(parts); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if !n.Output().SubsetOf(want) {
			unsound = true
		}
	}
	if !unsound {
		t.Errorf("naive broadcast never produced a spurious open triangle; expected unsoundness")
	}
}

// Example 5.1(2), second half: the coordinated protocol computes the
// open-triangle query correctly on every schedule.
func TestExample51Coordinated(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := workload.RandomGraph(10, 25, 9)
	want := q(g)
	for _, p := range []int{2, 4} {
		for seed := int64(0); seed < 6; seed++ {
			n := New(p, func() Program { return &Coordinated{Q: q} }, WithSeed(seed))
			if err := n.LoadParts(hashParts(g, p)); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Run(); err != nil {
				t.Fatal(err)
			}
			if !n.Output().Equal(want) {
				t.Fatalf("p=%d seed=%d: coordinated output wrong", p, seed)
			}
		}
	}
}

// CALM, positive direction (Theorem 5.3): the monotone program is
// coordination-free — on the ideal (fully replicated) distribution it
// computes Q without reading a single message.
func TestCALMMonotoneCoordinationFree(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(10, 25, 5)
	n := New(4, func() Program { return MonotoneBroadcast(q) }, WithSeed(1))
	n.LoadReplicated(g)
	stats := n.RunSilent()
	if stats.Delivered != 0 {
		t.Fatalf("silent run delivered messages")
	}
	if !n.Output().Equal(q(g)) {
		t.Errorf("monotone program needs message reads even on ideal distribution")
	}
}

// CALM, negative direction: the coordinated program for the
// non-monotone query genuinely depends on reading messages — silently
// dropping them loses output even on the replicated distribution,
// because the protocol waits for every other node's announcement.
func TestCALMCoordinatedNotCoordinationFree(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)")
	n := New(3, func() Program { return &Coordinated{Q: q} }, WithSeed(1))
	n.LoadReplicated(g)
	n.RunSilent()
	if n.Output().Equal(q(g)) {
		t.Errorf("coordinated protocol computed the query without reading messages; it should block")
	}
}

// Theorem 5.8 / Example 5.4: with a queryable total distribution
// policy, the open-triangle query becomes computable — and
// coordination-free.
func TestTheorem58OpenTriangle(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := workload.RandomGraph(9, 20, 11)
	want := q(g)
	p := 4
	pol := &policy.Hash{Nodes: p} // total single-node responsibility
	for seed := int64(0); seed < 6; seed++ {
		n := New(p, func() Program { return OpenTriangle() }, WithSeed(seed), WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		// The program outputs H facts; Q's head is also H.
		if !n.Output().Equal(want) {
			t.Fatalf("seed %d: policy-aware open triangle wrong: got %d want %d",
				seed, n.Output().Len(), want.Len())
		}
	}

	// Coordination-freeness: ideal distribution (replication, with the
	// replicating policy) needs no reads.
	repl := &policy.Replicate{Nodes: p}
	n := New(p, func() Program { return OpenTriangle() }, WithSeed(1), WithPolicy(repl))
	n.LoadReplicated(g)
	n.RunSilent()
	if !n.Output().Equal(want) {
		t.Errorf("open-triangle program not coordination-free under replication")
	}
}

// The generic distinct-complete strategy: sound on every run; complete
// when some node can vouch for all absent facts (here: a policy with a
// node responsible for everything).
func TestDistinctCompleteGeneric(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)", "E(b,d)")
	want := q(g)
	schema := rel.Schema{"E": 2}
	p := 3
	// Node 0 is responsible for every fact; others for none.
	pol := &policy.Func{Nodes: p, Resp: func(κ policy.Node, _ rel.Fact) bool { return κ == 0 }}
	for seed := int64(0); seed < 5; seed++ {
		n := New(p, func() Program {
			return DistinctComplete(q, schema)
		}, WithSeed(seed), WithPolicy(pol))
		// The distribution must be consistent with the policy a node
		// vouches absence against: loc-inst of the same policy.
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		out := n.Output()
		if !out.SubsetOf(want) {
			t.Fatalf("seed %d: distinct-complete emitted a spurious fact", seed)
		}
		if !want.SubsetOf(out) {
			t.Fatalf("seed %d: distinct-complete incomplete (%d vs %d)", seed, out.Len(), want.Len())
		}
	}
}

// Theorem 5.12: the domain-guided disjoint-complete strategy computes
// ¬TC (in Mdisjoint ∖ Mdistinct) on every schedule, and is
// coordination-free on the replicated distribution.
func TestTheorem512NotTC(t *testing.T) {
	q := Query(notTC)
	g := workload.ComponentsGraph(3, 3) // 3 disjoint 3-cycles
	want := q(g)
	if want.Len() == 0 {
		t.Fatal("bad test setup: ¬TC empty")
	}
	p := 4
	pol := &policy.DomainGuided{Nodes: p, DefaultWidth: 1}
	for seed := int64(0); seed < 6; seed++ {
		n := New(p, func() Program { return &DisjointComplete{Q: q} }, WithSeed(seed), WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if !n.Output().Equal(want) {
			t.Fatalf("seed %d: ¬TC output %d facts, want %d", seed, n.Output().Len(), want.Len())
		}
	}

	// Coordination-free: replicated + all-nodes domain assignment.
	repl := &policy.DomainGuided{Nodes: p, DefaultWidth: p}
	n := New(p, func() Program { return &DisjointComplete{Q: q} }, WithSeed(2), WithPolicy(repl))
	n.LoadReplicated(g)
	stats := n.RunSilent()
	if stats.Delivered != 0 {
		t.Fatal("silent run delivered")
	}
	if !n.Output().Equal(want) {
		t.Errorf("disjoint-complete not coordination-free under replication")
	}
}

// notTC computes the complement of the transitive closure over
// adom(I) (query Q¬TC of Example 5.6/5.10).
func notTC(i *rel.Instance) *rel.Instance {
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

// Eventual consistency: different schedules (seeds), same output.
func TestSchedulerIndependence(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(11, 28, 7)
	var first *rel.Instance
	for seed := int64(0); seed < 8; seed++ {
		n := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(seed))
		if err := n.LoadParts(hashParts(g, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = n.Output()
		} else if !n.Output().Equal(first) {
			t.Fatalf("seed %d produced different output", seed)
		}
	}
}

// Economical broadcast: on a query touching only relation E, facts of
// other relations are never shipped; output is unchanged.
func TestEconomicalBroadcast(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(10, 24, 13)
	// Add irrelevant ballast.
	ballast := workload.Zipf("Noise", 200, 50, 1.2, 1)
	full := g.Union(ballast)
	want := q(full)

	mkNaive := func() Program { return MonotoneBroadcast(q) }
	mkEco := func() Program {
		return EconomicalBroadcast(q, func(f rel.Fact) bool { return f.Rel == "E" })
	}
	run := func(mk func() Program) (Stats, *rel.Instance) {
		n := New(3, mk, WithSeed(4))
		if err := n.LoadParts(hashParts(full, 3)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, n.Output()
	}
	stNaive, outNaive := run(mkNaive)
	stEco, outEco := run(mkEco)
	if !outNaive.Equal(want) || !outEco.Equal(want) {
		t.Fatalf("outputs wrong: naive=%d eco=%d want=%d", outNaive.Len(), outEco.Len(), want.Len())
	}
	if stEco.Sent >= stNaive.Sent {
		t.Errorf("economical broadcast sent %d ≥ naive %d", stEco.Sent, stNaive.Sent)
	}
}

func TestNetworkGuards(t *testing.T) {
	d := rel.NewDict()
	n := New(2, func() Program {
		return MonotoneBroadcast(func(i *rel.Instance) *rel.Instance { return rel.NewInstance() })
	})
	if err := n.LoadParts([]*rel.Instance{rel.NewInstance()}); err == nil {
		t.Errorf("wrong part count accepted")
	}
	pol := &policy.Hash{Nodes: 3}
	if err := n.LoadPolicy(rel.NewInstance(), pol); err == nil {
		t.Errorf("mismatched policy size accepted")
	}
	// Policy query without a policy panics.
	defer func() {
		if recover() == nil {
			t.Errorf("ResponsibleFor without policy did not panic")
		}
	}()
	n.ctxs[0].ResponsibleFor(rel.MustFact(d, "E(a,b)"))
}

func TestPolicyQueryOutsideADomPanics(t *testing.T) {
	d := rel.NewDict()
	pol := &policy.Replicate{Nodes: 2}
	n := New(2, func() Program { return OpenTriangle() }, WithPolicy(pol))
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-adom policy query did not panic")
		}
	}()
	n.ctxs[0].ResponsibleFor(rel.MustFact(d, "E(zz,ww)"))
}

func TestControlFactDetection(t *testing.T) {
	if !ControlFact(rel.NewFact(countRel, 1)) {
		t.Errorf("count fact not detected as control")
	}
	if ControlFact(rel.NewFact("E", 1, 2)) {
		t.Errorf("data fact detected as control")
	}
}

// The A-classes (oblivious networks, no All relation): monotone
// broadcast still works — A0 = M — while the coordinated protocol
// cannot even start waiting and soundly stays silent.
func TestObliviousNetworks(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(10, 24, 3)
	n := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(1), Oblivious())
	if err := n.LoadParts(hashParts(g, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Output().Equal(q(g)) {
		t.Errorf("oblivious monotone broadcast wrong")
	}

	open := openTriangles(d)
	g2 := rel.MustInstance(d, "E(a,b)", "E(b,c)")
	nc := New(3, func() Program { return &Coordinated{Q: open} }, WithSeed(1), Oblivious())
	if err := nc.LoadParts(hashParts(g2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Run(); err != nil {
		t.Fatal(err)
	}
	if nc.Output().Len() != 0 {
		t.Errorf("oblivious coordinated protocol produced output; it cannot know when to")
	}
}

// Coordination quantification (Section 6): the monotone strategy sends
// zero control messages; the coordinated one has a strictly positive
// coordination ratio.
func TestCoordinationRatio(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	open := openTriangles(d)
	g := workload.RandomGraph(8, 18, 5)
	parts := hashParts(g, 3)

	n1 := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(2))
	if err := n1.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	st1, err := n1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st1.ControlSent != 0 || st1.CoordinationRatio() != 0 {
		t.Errorf("monotone broadcast coordinates: %+v", st1)
	}

	n2 := New(3, func() Program { return &Coordinated{Q: open} }, WithSeed(2))
	if err := n2.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	st2, err := n2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ControlSent == 0 || st2.CoordinationRatio() <= 0 {
		t.Errorf("coordinated protocol shows no coordination: %+v", st2)
	}
	if n2.Stats().ControlSent != st2.ControlSent {
		t.Errorf("the network's control count disagrees with the run's stats")
	}
	// The domain-guided strategy coordinates pairwise, not globally:
	// its control traffic exists but is data-proportional.
	pol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
	g3 := workload.ComponentsGraph(2, 3)
	n3 := New(3, func() Program { return &DisjointComplete{Q: notTC} }, WithSeed(2), WithPolicy(pol))
	if err := n3.LoadPolicy(g3, pol); err != nil {
		t.Fatal(err)
	}
	st3, err := n3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st3.ControlSent == 0 {
		t.Errorf("disjoint-complete sent no control messages")
	}
	if r := st3.CoordinationRatio(); r <= 0 || r > 1 {
		t.Errorf("ratio out of range: %v", r)
	}
}

// Eventual consistency discipline: outputs are write-only and only
// grow — verified across interleaved inspection points by running the
// same seed twice and comparing node outputs.
func TestOutputsDeterministicPerSeed(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.RandomGraph(9, 20, 1)
	run := func() []string {
		n := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(77))
		if err := n.LoadParts(hashParts(g, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		var outs []string
		for i := policy.Node(0); int(i) < 3; i++ {
			outs = append(outs, n.NodeOutput(i).String())
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d outputs differ across identical runs", i)
		}
	}
}

// chatterbox re-broadcasts every received fact forever: the runtime's
// step bound must catch the non-quiescing program instead of hanging.
type chatterbox struct{ n int }

func (c *chatterbox) Start(ctx *Context) {
	ctx.Broadcast(rel.NewFact("Ping", rel.Value(0)))
}

func (c *chatterbox) OnMessage(ctx *Context, _ policy.Node, f rel.Fact) {
	c.n++
	ctx.Broadcast(rel.NewFact("Ping", rel.Value(c.n%7)))
}

func TestNonQuiescingProgramBounded(t *testing.T) {
	n := New(2, func() Program { return &chatterbox{} }, WithSeed(1))
	if err := n.LoadParts([]*rel.Instance{rel.NewInstance(), rel.NewInstance()}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err == nil {
		t.Fatalf("non-quiescing program terminated")
	}
}

// Single-node networks: broadcast sends nothing, everything is local.
func TestSingleNodeNetwork(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := workload.CycleGraph(3)
	n := New(1, func() Program { return MonotoneBroadcast(q) }, WithSeed(1))
	if err := n.LoadParts([]*rel.Instance{g}); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 0 {
		t.Errorf("single node sent %d messages", st.Sent)
	}
	if !n.Output().Equal(q(g)) {
		t.Errorf("single-node output wrong")
	}
	_ = d
}

// Overlapping horizontal distributions (a fact stored at two nodes)
// are allowed — the model only requires the union to be the global
// instance — and must not distort results.
func TestOverlappingDistribution(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)")
	parts := []*rel.Instance{
		rel.MustInstance(d, "E(0,1)", "E(1,2)"),
		rel.MustInstance(d, "E(1,2)", "E(2,0)"), // E(1,2) duplicated
	}
	n := New(2, func() Program { return MonotoneBroadcast(q) }, WithSeed(3))
	if err := n.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Output().Equal(q(g)) {
		t.Errorf("overlap distorted output")
	}
}

// A1 = F1 and A2 = F2 empirically: the policy-aware and domain-guided
// strategies never consult All, so they run unchanged on oblivious
// networks.
func TestObliviousPolicyAwareStrategies(t *testing.T) {
	d := rel.NewDict()
	open := openTriangles(d)
	g := workload.RandomGraph(8, 16, 21)
	pol := &policy.Hash{Nodes: 3}
	n := New(3, func() Program { return OpenTriangle() },
		WithSeed(4), WithPolicy(pol), Oblivious())
	if err := n.LoadPolicy(g, pol); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Output().Equal(open(g)) {
		t.Errorf("oblivious policy-aware open triangle wrong")
	}

	g2 := workload.ComponentsGraph(2, 3)
	dg := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
	n2 := New(3, func() Program { return &DisjointComplete{Q: notTC} },
		WithSeed(4), WithPolicy(dg), Oblivious())
	if err := n2.LoadPolicy(g2, dg); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if !n2.Output().Equal(notTC(g2)) {
		t.Errorf("oblivious domain-guided ¬TC wrong")
	}
}

// A policy-aware network refuses a hand-loaded distribution that
// contradicts its declared placement: the violation is typed at load
// time instead of poisoning Responsible-based decisions mid-run.
func TestLoadPartsRejectsPolicyViolation(t *testing.T) {
	pol := &policy.Hash{Nodes: 3}
	g := workload.RandomGraph(9, 20, 7)
	parts := policy.Distribute(pol, g)
	var stolen rel.Fact
	parts[0].Each(func(f rel.Fact) bool { stolen = f.Clone(); return false })
	wrong := policy.Node(1)
	if policy.Responsible(pol, wrong, stolen) {
		wrong = 2
	}
	parts[wrong].Add(stolen)

	n := New(3, func() Program { return OpenTriangle() }, WithPolicy(pol))
	err := n.LoadParts(parts)
	if err == nil {
		t.Fatal("nonconforming distribution accepted on a policy-aware network")
	}
	var v *policy.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *policy.Violation", err)
	}
	if v.Node != wrong {
		t.Errorf("accused node %d, want %d", v.Node, wrong)
	}

	// The same parts without the planted fact load fine, and a
	// policy-unaware network never second-guesses its caller.
	clean := policy.Distribute(pol, g)
	if err := n.LoadParts(clean); err != nil {
		t.Fatalf("conforming distribution rejected: %v", err)
	}
	n2 := New(3, func() Program { return OpenTriangle() })
	if err := n2.LoadParts(parts); err != nil {
		t.Fatalf("policy-unaware network rejected parts: %v", err)
	}
}

// A node beyond the declared policy's width is responsible for nothing,
// so a fact loaded there is a violation like any other.
func TestLoadPartsRejectsFactBeyondPolicyWidth(t *testing.T) {
	n := New(3, func() Program { return OpenTriangle() }, WithPolicy(&policy.Hash{Nodes: 2}))
	e := rel.NewFact("E", 1, 2)
	err := n.LoadParts([]*rel.Instance{rel.NewInstance(), rel.NewInstance(), rel.FromFacts(e)})
	var v *policy.Violation
	if !errors.As(err, &v) {
		t.Fatalf("LoadParts = %v, want a *policy.Violation", err)
	}
	if v.Node != 2 || !v.Fact.Equal(e) {
		t.Errorf("accused node %d of %v, want node 2 of %v", v.Node, v.Fact, e)
	}
	if err := n.LoadParts([]*rel.Instance{rel.NewInstance(), rel.NewInstance(), rel.NewInstance()}); err != nil {
		t.Errorf("an empty part beyond the width rejected: %v", err)
	}
}

// Oblivious removes the All relation (classes A0/A1/A2).
func Oblivious() Option {
	return func(n *Network) { n.aware = false }
}

// LoadReplicated gives every node the full instance — the ideal
// distribution of the coordination-freeness definition.
func (n *Network) LoadReplicated(i *rel.Instance) {
	parts := make([]*rel.Instance, n.p)
	for j, c := range n.ctxs {
		c.state = i.Clone()
		parts[j] = i
	}
	n.store = policy.NewStableStore(parts).Clone()
}

// NodeOutput returns one node's output.
func (n *Network) NodeOutput(i policy.Node) *rel.Instance { return n.outputs[i] }

// Stats returns the statistics so far.
func (n *Network) Stats() Stats { return n.stats }
