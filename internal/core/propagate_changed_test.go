package core

import (
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// TestPropagateChangedSoundAndExact: PropagateChanged returns the same ξ as
// Propagate bit for bit, and its change list is sound — every node outside
// it keeps its input color and weight — complete against the strict
// input/output diff, confined to the recolor set, sorted and duplicate-free.
// Propagate itself is pinned against the full-recolor oracle, so the
// maintained result is exact, not merely self-consistent.
func TestPropagateChangedSoundAndExact(t *testing.T) {
	eng := &Engine{}
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		hp, _, _ := eng.Hybrid(c, in)
		base := NewWeighted(hp)
		// Random non-trivial starting weights on a few nodes, so weight
		// changes flow through the tracker too.
		for i := 0; i < base.P.Len(); i += 3 {
			base.W[i] = float64(r.Intn(10)) / 20
		}
		want, wantIters := oracle{}.Propagate(c, base, 0)
		got, gotIters, changed, err := eng.PropagateChanged(c, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wantIters != gotIters {
			t.Fatalf("seed %d: iters %d, want %d", seed, gotIters, wantIters)
		}
		un := map[rdf.NodeID]bool{}
		for _, n := range UnalignedNonLiterals(c, base.P) {
			un[n] = true
		}
		inChanged := map[rdf.NodeID]bool{}
		for i, n := range changed {
			if i > 0 && changed[i-1] >= n {
				t.Fatalf("seed %d: change list not strictly ascending at %d: %v", seed, i, changed)
			}
			if !un[n] {
				t.Fatalf("seed %d: changed node %d outside the recolor set", seed, n)
			}
			inChanged[n] = true
		}
		for i := 0; i < c.NumNodes(); i++ {
			n := rdf.NodeID(i)
			if want.P.Color(n) != got.P.Color(n) || want.W[n] != got.W[n] {
				t.Fatalf("seed %d: node %d diverges from the oracle: (%d, %v) vs (%d, %v)",
					seed, n, got.P.Color(n), got.W[n], want.P.Color(n), want.W[n])
			}
			moved := got.P.Color(n) != base.P.Color(n) || got.W[n] != base.W[n]
			if moved && !inChanged[n] {
				t.Fatalf("seed %d: node %d moved but is missing from the change list", seed, n)
			}
		}
	}
}
