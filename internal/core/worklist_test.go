package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// allNodes returns the ascending recolor set covering g.
func allNodes(g *rdf.Graph) []rdf.NodeID {
	all := make([]rdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = rdf.NodeID(i)
	}
	return all
}

// samePartition reports color-for-color equality (stronger than Equivalent).
func samePartition(a, b *Partition) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Color(rdf.NodeID(i)) != b.Color(rdf.NodeID(i)) {
			return false
		}
	}
	return true
}

// TestWorklistEnginesIdentical asserts the worklist engine agrees with the
// full-recolor oracle on random graphs: the identical coloring in the same
// number of iterations, whose partition equals the naive greatest-fixpoint
// bisimulation.
func TestWorklistEnginesIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "wl", 3+r.Intn(5), r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		all := allNodes(g)
		wl, itWL, err := (&Engine{}).Refine(g, LabelPartition(g, NewInterner()), all)
		if err != nil {
			t.Fatal(err)
		}
		full, itFull := oracle{}.Refine(g, LabelPartition(g, NewInterner()), all)
		if itWL != itFull {
			t.Logf("iteration counts diverge: wl=%d full=%d", itWL, itFull)
			return false
		}
		if !samePartition(wl, full) {
			t.Log("colorings diverge")
			return false
		}
		return FromPartition(wl).Equal(NaiveMaximalBisimulation(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestWorklistDeblankIdentical is the deblank/hybrid counterpart: the
// restricted recolor sets (blanks, unaligned non-literals) take the same
// frontier machinery through the multi-phase pipeline.
func TestWorklistDeblankIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		wl, itWL, err := (&Engine{}).Hybrid(c, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		full, itFull := oracle{}.Hybrid(c, NewInterner())
		return itWL == itFull && samePartition(wl, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWorklistParallelLargeFrontier checks the worklist against the
// full-recolor oracle on a frontier of tens of thousands of nodes. (The
// name predates the removal of the parallel engine.)
func TestWorklistParallelLargeFrontier(t *testing.T) {
	g := benchWideGraph()
	all := allNodes(g)
	wl, itWL, err := (&Engine{}).Refine(g, LabelPartition(g, NewInterner()), all)
	if err != nil {
		t.Fatal(err)
	}
	full, itFull := oracle{}.Refine(g, LabelPartition(g, NewInterner()), all)
	if itWL != itFull {
		t.Errorf("iteration counts: worklist=%d oracle=%d", itWL, itFull)
	}
	if !samePartition(wl, full) {
		t.Error("worklist diverged from the oracle on a large frontier")
	}
}

// extendedTestOptions are the extended recoloring variants the oracle
// property tests sweep, each with and without Adaptive: a key filter on
// the outbound list, pure context, and contents plus context.
func extendedTestOptions() []RefineOptions {
	var out []RefineOptions
	for _, adaptive := range []bool{false, true} {
		out = append(out,
			RefineOptions{Direction: DirOut, Filter: PredicateKeyFilter("u0", "u2"), Adaptive: adaptive},
			RefineOptions{Direction: DirIn, Adaptive: adaptive},
			RefineOptions{Direction: DirBoth, Adaptive: adaptive},
		)
	}
	return out
}

// TestWorklistExtendedOptionsOracle is the property test of the worklist's
// extended frontier: under every extended option set, depth bound and
// interner seed, Bisim, Deblank and Hybrid agree with the full-recolor
// oracle color for color and round for round. The oracle recolors every
// node of x each round, so any reader of a changed inbound or
// predicate-occurrence list the frontier missed shows up as a divergence.
func TestWorklistExtendedOptionsOracle(t *testing.T) {
	seeds := internTestSeeds[:3]
	f := func(rngSeed int64) bool {
		r := rand.New(rand.NewSource(rngSeed))
		g := randomGraph(r, "ext", 3+r.Intn(5), 1+r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		c := randomCombined(r)
		for _, opt := range extendedTestOptions() {
			for _, k := range []int{0, 1, 2, 3} {
				eng := &Engine{Opt: opt, MaxDepth: k}
				ref := oracle{Opt: opt, MaxDepth: k}
				for _, seed := range seeds {
					check := func(what string, p *Partition, it int, err error, want *Partition, wantIt int) bool {
						if err != nil {
							t.Fatal(err)
						}
						if it != wantIt || !samePartition(p, want) {
							t.Logf("%s opt=%+v k=%d seed=%#x: %d rounds vs oracle %d, identical=%v",
								what, opt, k, seed, it, wantIt, samePartition(p, want))
							return false
						}
						return true
					}
					p, it, err := eng.Bisim(g, NewInternerSeeded(seed))
					want, wantIt := ref.Bisim(g, NewInternerSeeded(seed))
					if !check("bisim", p, it, err, want, wantIt) {
						return false
					}
					p, it, err = eng.Deblank(c.Graph, NewInternerSeeded(seed))
					want, wantIt = ref.Deblank(c.Graph, NewInternerSeeded(seed))
					if !check("deblank", p, it, err, want, wantIt) {
						return false
					}
					p, it, err = eng.Hybrid(c, NewInternerSeeded(seed))
					want, wantIt = ref.Hybrid(c, NewInternerSeeded(seed))
					if !check("hybrid", p, it, err, want, wantIt) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWorklistSinkPredicateObject pins the frontier term random graphs
// rarely reach: a sink predicate characterised by its occurrences must be
// re-dirtied when the object of one of its triples changes while the
// subject does not. The key filter hides the p1/p2 edges from s, so s
// aligns across the versions and stays out of the hybrid recolor set. The
// blank chains below a1 (three links) and c1 (four links) end in different
// literals, so no chain blank aligns, and the chains tell a1 from c1 only in
// round two; p1 and p2 must split one round later.
func TestWorklistSinkPredicateObject(t *testing.T) {
	version := func(name, pred, leaf string, links int) *rdf.Graph {
		b := rdf.NewBuilder(name)
		key := b.URI("u0")
		head := b.FreshBlank()
		b.TripleURI(b.URI("s"), pred, head)
		cur := head
		for i := 1; i < links; i++ {
			next := b.FreshBlank()
			b.Triple(cur, key, next)
			cur = next
		}
		b.Triple(cur, key, b.Literal(leaf))
		return mustGraph(t, b)
	}
	c := rdf.Union(version("v1", "p1", "leaf1", 3), version("v2", "p2", "leaf2", 4))
	opt := RefineOptions{Filter: PredicateKeyFilter("u0"), Adaptive: true}
	wl, itWL, err := (&Engine{Opt: opt}).Hybrid(c, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	full, itFull := oracle{Opt: opt}.Hybrid(c, NewInterner())
	if itWL != itFull || !samePartition(wl, full) {
		t.Errorf("worklist: %d rounds, oracle %d, identical=%v", itWL, itFull, samePartition(wl, full))
	}
	p1 := c.FromSource(mustURI(t, c.SourceGraph(), "p1"))
	p2 := c.FromTarget(mustURI(t, c.TargetGraph(), "p2"))
	if wl.SameClass(p1, p2) {
		t.Error("p1 and p2 occur with different objects and must not align")
	}
}

// TestWorklistWeightedIdentical: the weighted worklist agrees bit-for-bit
// (colors and weights) with the full-recolor weighted oracle on random
// propagation workloads, per the exact dirty criterion (any weight motion
// re-dirties dependents, ε only governs termination).
func TestWorklistWeightedIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		wl, itWL, err := (&Engine{}).Propagate(c, NewWeighted(TrivialPartition(c.Graph, NewInterner())), 0)
		if err != nil {
			t.Fatal(err)
		}
		full, itFull := oracle{}.Propagate(c, NewWeighted(TrivialPartition(c.Graph, NewInterner())), 0)
		if itWL != itFull {
			t.Logf("weighted iteration counts diverge: wl=%d full=%d", itWL, itFull)
			return false
		}
		if !samePartition(wl.P, full.P) {
			t.Log("weighted colorings diverge")
			return false
		}
		for i := range wl.W {
			if wl.W[i] != full.W[i] {
				t.Logf("weight %d diverges: %v vs %v", i, wl.W[i], full.W[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWorklistQuiescentCycle pins the grouping-equivalence stabilisation on
// the case an empty-frontier criterion can never detect: a symmetric cycle
// of blank nodes re-derives a fresh color for its class every round, so the
// frontier never empties; the engine must recognise the pure renaming and
// stop exactly where the oracle's equivalentColors scan does.
func TestWorklistQuiescentCycle(t *testing.T) {
	b := rdf.NewBuilder("cycle")
	p := b.URI("p")
	x := b.Blank("x")
	y := b.Blank("y")
	z := b.Blank("z")
	b.Triple(x, p, y)
	b.Triple(y, p, z)
	b.Triple(z, p, x)
	root := b.URI("root")
	b.Triple(root, p, x)
	g := mustGraph(t, b)
	wl, itWL, err := (&Engine{}).Deblank(g, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	full, itFull := oracle{}.Deblank(g, NewInterner())
	if itWL != itFull {
		t.Errorf("iteration counts: worklist=%d full=%d", itWL, itFull)
	}
	if !samePartition(wl, full) {
		t.Error("worklist diverged from the oracle on the blank cycle")
	}
	// All three cycle blanks must share one class (mutually bisimilar).
	if wl.Color(x) != wl.Color(y) || wl.Color(y) != wl.Color(z) {
		t.Error("cycle blanks must stay in one class")
	}
}

// TestWorklistCancellationMidRun aborts a deep refinement from a progress
// hook a few rounds in: the engine must return the context's error promptly
// instead of running the fixpoint to completion.
func TestWorklistCancellationMidRun(t *testing.T) {
	// A long blank chain refines one node per round — plenty of rounds to
	// cancel within.
	b := rdf.NewBuilder("chain")
	p := b.URI("p")
	end := b.URI("end")
	prev := end
	for i := 0; i < 200; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	g := mustGraph(t, b)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	eng := &Engine{Hooks: Hooks{Ctx: ctx, OnRound: func(ev ProgressEvent) {
		rounds++
		if rounds == 3 {
			cancel()
		}
	}}}
	_, _, err := eng.Deblank(g, NewInterner())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds > 4 {
		t.Errorf("engine kept running %d rounds after cancellation", rounds)
	}

	// The weighted worklist honours cancellation the same way.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	eng2 := &Engine{Hooks: Hooks{Ctx: ctx2}}
	c := rdf.Union(g, g)
	_, _, err = eng2.Propagate(c, NewWeighted(TrivialPartition(c.Graph, NewInterner())), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("weighted err = %v, want context.Canceled", err)
	}
}

// TestWorklistProgressDirty: worklist rounds report the frontier size, which
// must shrink on a chain workload (only a moving frontier stays dirty).
func TestWorklistProgressDirty(t *testing.T) {
	b := rdf.NewBuilder("chain")
	p := b.URI("p")
	end := b.URI("end")
	prev := end
	for i := 0; i < 30; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	g := mustGraph(t, b)
	var dirties []int
	eng := &Engine{Hooks: Hooks{OnRound: func(ev ProgressEvent) {
		if ev.Stage == StageRefine {
			dirties = append(dirties, ev.Dirty)
		}
	}}}
	if _, _, err := eng.Deblank(g, NewInterner()); err != nil {
		t.Fatal(err)
	}
	if len(dirties) == 0 {
		t.Fatal("no refine rounds reported")
	}
	if dirties[0] != g.NumBlanks() {
		t.Errorf("first round dirty = %d, want all %d blanks", dirties[0], g.NumBlanks())
	}
	last := dirties[len(dirties)-1]
	if last >= dirties[0] {
		t.Errorf("frontier did not shrink: first %d, last %d", dirties[0], last)
	}
}
