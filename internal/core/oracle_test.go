package core

import (
	"fmt"
	"math"

	"rdfalign/internal/rdf"
)

// This file holds the full-recolor reference the worklist engine is tested
// against: the one-step refinements of §3.2 equation (2) and §4.5 applied
// literally — every node of the recolor set recolored from a snapshot of
// the previous round — and the fixpoint loops iterating them until the
// whole coloring is grouping-equivalent to its predecessor. The engine must
// agree with it color for color, in the same number of rounds.

// RefineStep applies the one-step bisimulation partition refinement
// BisimRefine_X(λ) of §3.2 equation (2): nodes in x are recolored with
// recolor_λ, all other nodes keep their color. The input partition is not
// modified.
func RefineStep(g *rdf.Graph, p *Partition, x []rdf.NodeID) *Partition {
	q := p.Clone()
	var scratch []ColorPair
	for _, n := range x {
		var c Color
		c, scratch = recolor(g, p, n, scratch)
		q.colors[n] = c
	}
	return q
}

// RefineStepOpts is RefineStep with direction and filter options.
func RefineStepOpts(g *rdf.Graph, p *Partition, x []rdf.NodeID, opt RefineOptions) *Partition {
	q := p.Clone()
	var scratch [3][]ColorPair
	for _, n := range x {
		q.colors[n] = recolorOpts(g, p, n, opt, &scratch)
	}
	return q
}

// RefineWeightedStep is the one-step weighted refinement BisimRefine_X(ξ)
// of §4.5: colors of nodes in x are refined exactly as in the unweighted
// case, and their weights are recomputed with reweight (synchronously: all
// reads see the input weights).
func RefineWeightedStep(g *rdf.Graph, xi *Weighted, x []rdf.NodeID) *Weighted {
	out := xi.Clone()
	var scratch []ColorPair
	for _, n := range x {
		var c Color
		c, scratch = recolor(g, xi.P, n, scratch)
		out.P.colors[n] = c
		out.W[n] = reweight(g, xi.W, n)
	}
	return out
}

// oracle is the full-recolor reference engine: the Engine fixpoints with
// the same options and depth bound, evaluated by whole rounds.
type oracle struct {
	Opt      RefineOptions
	MaxDepth int
}

// Refine is the full-recolor counterpart of Engine.Refine.
func (o oracle) Refine(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int) {
	cur := p
	for iter := 0; o.MaxDepth == 0 || iter < o.MaxDepth; iter++ {
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: oracle Refine did not stabilise after %d iterations", iter))
		}
		next := RefineStepOpts(g, cur, x, o.Opt)
		if equivalentColors(cur.colors, next.colors) {
			return cur, iter
		}
		cur = next
	}
	return cur, o.MaxDepth
}

// Bisim is the full-recolor counterpart of Engine.Bisim.
func (o oracle) Bisim(g *rdf.Graph, in *Interner) (*Partition, int) {
	return o.Refine(g, LabelPartition(g, in), allNodes(g))
}

// Deblank is the full-recolor counterpart of Engine.Deblank.
func (o oracle) Deblank(g *rdf.Graph, in *Interner) (*Partition, int) {
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	return o.Refine(g, LabelPartition(g, in), blanks)
}

// Hybrid is the full-recolor counterpart of Engine.Hybrid.
func (o oracle) Hybrid(c *rdf.Combined, in *Interner) (*Partition, int) {
	deblank, it1 := o.Deblank(c.Graph, in)
	un := UnalignedNonLiterals(c, deblank)
	p, it2 := o.Refine(c.Graph, BlankOut(deblank, un), un)
	return p, it1 + it2
}

// RefineWeighted is the full-recolor counterpart of Engine.RefineWeighted.
func (o oracle) RefineWeighted(g *rdf.Graph, xi *Weighted, x []rdf.NodeID, eps float64) (*Weighted, int) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	cur := xi
	for iter := 0; o.MaxDepth == 0 || iter < o.MaxDepth; iter++ {
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: oracle RefineWeighted did not stabilise after %d iterations", iter))
		}
		next := RefineWeightedStep(g, cur, x)
		maxDelta := 0.0
		for _, n := range x {
			maxDelta = math.Max(maxDelta, math.Abs(next.W[n]-cur.W[n]))
		}
		if maxDelta < eps && equivalentColors(cur.P.colors, next.P.colors) {
			return next, iter + 1
		}
		cur = next
	}
	return cur, o.MaxDepth
}

// Propagate is the full-recolor counterpart of Engine.Propagate.
func (o oracle) Propagate(c *rdf.Combined, xi *Weighted, eps float64) (*Weighted, int) {
	un := UnalignedNonLiterals(c, xi.P)
	return o.RefineWeighted(c.Graph, BlankOutWeighted(xi, un), un, eps)
}
