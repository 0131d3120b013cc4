package core

import (
	"strconv"
	"testing"

	"rdfalign/internal/rdf"
)

// The Bisim benchmarks run the engine on two shapes: "deep" (small node
// set, many iterations — per-round overhead dominates) and "wide" (large
// node set, few iterations — the first round's gather dominates).

func BenchmarkRefineSequentialDeep(b *testing.B) {
	benchRefine(b, benchChainGraph())
}

func BenchmarkRefineSequentialWide(b *testing.B) {
	benchRefine(b, benchWideGraph())
}

func benchRefine(b *testing.B, g *rdf.Graph) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&Engine{}).Bisim(g, NewInterner()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChainGraph builds a graph with deep refinement (many iterations over
// a small node set), where per-round overhead dominates.
func benchChainGraph() *rdf.Graph {
	b := rdf.NewBuilder("bench-deep")
	p := b.URI("p")
	var prev []rdf.NodeID
	for i := 0; i < 40; i++ {
		prev = append(prev, b.Literal("leaf"+strconv.Itoa(i)))
	}
	for depth := 0; depth < 30; depth++ {
		var next []rdf.NodeID
		for i := 0; i < 40; i++ {
			n := b.FreshBlank()
			b.Triple(n, p, prev[i])
			b.Triple(n, p, prev[(i+1)%len(prev)])
			next = append(next, n)
		}
		prev = next
	}
	return b.MustGraph()
}

// benchWideGraph builds a large, shallow graph: 60k nodes with fan-out 4
// and depth ~4, so refinement converges in a handful of iterations over a
// big node set.
func benchWideGraph() *rdf.Graph {
	b := rdf.NewBuilder("bench-wide")
	p := b.URI("p")
	q := b.URI("q")
	var layer []rdf.NodeID
	for i := 0; i < 200; i++ {
		layer = append(layer, b.Literal("leaf"+strconv.Itoa(i)))
	}
	for depth := 0; depth < 4; depth++ {
		var next []rdf.NodeID
		for i := 0; i < 15000; i++ {
			n := b.FreshBlank()
			b.Triple(n, p, layer[i%len(layer)])
			b.Triple(n, q, layer[(i*7+depth)%len(layer)])
			next = append(next, n)
		}
		layer = next
	}
	return b.MustGraph()
}
