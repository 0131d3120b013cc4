package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// BenchmarkOverlapMatch measures one literal matching scan (Algorithm 1) on
// a 500×500 word-set workload, sequential and with a 4-worker fan-out (on a
// single-core host the parallel variant can only show its coordination
// overhead; the speedup needs cores).
func BenchmarkOverlapMatch(b *testing.B) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var l1, l2 []string
	for i := 0; i < 500; i++ {
		l1 = append(l1, fmt.Sprintf("%s %s %s #%d", words[i%8], words[(i/3)%8], words[(i/7)%8], i%26))
		l2 = append(l2, fmt.Sprintf("%s %s %s #%d", words[i%8], words[(i/3)%8], words[(i/5)%8], i%26))
	}
	c, aa, bb := literalNodesB(b, l1, l2)
	theta := 0.65
	char := func(n rdf.NodeID) []string { return Split(c.Label(n).Value) }
	dist := func(n, m rdf.NodeID) (float64, bool) {
		return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OverlapMatchWorkers(aa, bb, theta, char, dist, core.Hooks{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverlapMatchSkewed measures one non-literal-shaped matching scan
// over uint64 out-colour keys with GtoPdb's skew: every node carries one
// of two (rdf:type, C)-like keys whose posting lists hold 10⁴ B nodes each,
// plus one to five keys from a 5000-key vocabulary, so k ≤ 6 and the
// frequency-ordered prefix of most sources reaches a huge posting list.
// Nearly every candidate is then rejected by the overlap screen; this is
// the shape in which per-candidate dedup, ordering and screening dominate.
func BenchmarkOverlapMatchSkewed(b *testing.B) {
	const nA, nB, vocab = 2000, 20000, 5000
	r := rand.New(rand.NewSource(1))
	chars := make([][]uint64, nA+nB)
	for i := range chars {
		cs := []uint64{uint64(i % 2)}
		for j := 1 + r.Intn(5); j > 0; j-- {
			cs = append(cs, 2+uint64(r.Intn(vocab)))
		}
		chars[i] = cs
	}
	aa := make([]rdf.NodeID, nA)
	for i := range aa {
		aa[i] = rdf.NodeID(i)
	}
	bb := make([]rdf.NodeID, nB)
	for i := range bb {
		bb[i] = rdf.NodeID(nA + i)
	}
	char := func(n rdf.NodeID) []uint64 { return chars[n] }
	dist := func(n, m rdf.NodeID) (float64, bool) { return 0, true }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OverlapMatchWorkers(aa, bb, 0.65, char, dist, core.Hooks{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapAlignCascade runs the full Algorithm 2 on a deep cascade
// (13 matching rounds) surrounded by 250 never-aligning distractor nodes
// per side — the shape where the incremental per-round index pays:
// "scratch" rebuilds the inverted index and every characterisation each
// round, "incremental" repairs them from the round's change lists.
func BenchmarkOverlapAlignCascade(b *testing.B) {
	g1, g2 := cascadePair(b, 12, 250)
	for _, mode := range []struct {
		name    string
		scratch bool
	}{{"incremental", false}, {"scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := rdf.Union(g1, g2)
				in := core.NewInterner()
				hp, _, _ := (&core.Engine{}).Hybrid(c, in)
				b.StartTimer()
				res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65, scratchIndex: mode.scratch})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != 14 {
					b.Fatalf("cascade rounds = %d, want 14", res.Rounds)
				}
			}
		})
	}
}
