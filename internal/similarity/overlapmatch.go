package similarity

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// Overlap returns the overlap similarity of two sets given as element
// slices (duplicates allowed; set semantics applied): |O1 ∩ O2| / |O1 ∪ O2|,
// with overlap(∅, ∅) = 1 by convention (§4.6).
func Overlap[O comparable](o1, o2 []O) float64 {
	s1 := toSet(o1)
	s2 := toSet(o2)
	if len(s1) == 0 && len(s2) == 0 {
		return 1
	}
	inter := 0
	for o := range s1 {
		if _, ok := s2[o]; ok {
			inter++
		}
	}
	union := len(s1) + len(s2) - inter
	return float64(inter) / float64(union)
}

// Diff is the distance counterpart 1 − overlap, with diff(∅, ∅) = 0.
func Diff[O comparable](o1, o2 []O) float64 {
	return 1 - Overlap(o1, o2)
}

func toSet[O comparable](os []O) map[O]struct{} {
	s := make(map[O]struct{}, len(os))
	for _, o := range os {
		s[o] = struct{}{}
	}
	return s
}

// BipartiteEdge is one discovered close pair with its distance.
type BipartiteEdge struct {
	A, B rdf.NodeID
	D    float64
}

// WeightedBipartite is the weighted bipartite graph H = (A, B, M, d) of
// §4.4 produced by the overlap heuristic: A and B are the candidate node
// sets, Edges is M with the distance function d attached.
type WeightedBipartite struct {
	A, B  []rdf.NodeID
	Edges []BipartiteEdge
}

// HasEdges reports whether H contains any discovered pair (the termination
// condition of Algorithm 2).
func (h *WeightedBipartite) HasEdges() bool { return len(h.Edges) > 0 }

// DistFunc verifies one candidate pair: it returns the distance and whether
// the pair passes (d ≤ θ, the inclusive Align_θ convention of §4.1).
// Implementations may compute lazily and bail out early (cf.
// strdist.WithinThreshold).
type DistFunc func(a, b rdf.NodeID) (float64, bool)

// OverlapMatch is Algorithm 1 (§4.6): it discovers close pairs between the
// disjoint node sets A and B. Every node is characterised by a set of
// objects (char); an inverted index over B's objects plus frequency-ordered
// prefix filtering yields candidates sharing a discriminating object;
// candidates are screened by overlap(char(a), char(b)) ≥ θ and finally
// verified with the distance function (σ(a, b) ≤ θ).
//
// Prefix length: the paper's pseudocode scans the ⌈kθ⌉ least frequent
// objects of char(a). A prefix of ⌊(1−θ)k⌋+1 objects is what makes the
// filter lossless (any b with overlap ≥ θ shares an object with every such
// prefix); the pseudocode's value exceeds it only for θ above ~0.5. We scan
// max(⌈kθ⌉, ⌊(1−θ)k⌋+1) so the filter is lossless across the full θ sweep
// of the paper's Figure 15 while scanning at least the paper's prefix.
//
// The output is deterministic: edges are sorted by (A, B).
func OverlapMatch[O cmp.Ordered](a, b []rdf.NodeID, theta float64, char func(rdf.NodeID) []O, dist DistFunc) *WeightedBipartite {
	h, _ := OverlapMatchHooks(a, b, theta, char, dist, core.Hooks{})
	return h
}

// OverlapMatchHooks is OverlapMatch with cancellation: the matching phase
// can dominate a round's cost (it runs edit-distance verification over the
// candidate pairs), so the hooks' context is checked once per source node
// and additionally once per cancelBatch candidates inside each node's
// verification scan, and the scan aborts with the context's error.
func OverlapMatchHooks[O cmp.Ordered](a, b []rdf.NodeID, theta float64, char func(rdf.NodeID) []O, dist DistFunc, hooks core.Hooks) (*WeightedBipartite, error) {
	return OverlapMatchWorkers(a, b, theta, char, dist, hooks, 1)
}

// OverlapMatchWorkers is OverlapMatchHooks parallelised across source
// nodes: the inverted index over B is built once, then workers scan
// disjoint chunks of A over the shared read-only index, verifying their own
// candidates (the σ/edit-distance verification dominates the scan, so it is
// what parallelises). Per-worker edge batches are merged in source order
// and finally sorted by (A, B), so the output is bit-identical to the
// sequential scan for every worker count. workers <= 1 runs sequentially;
// with workers > 1 both char and dist must be safe for concurrent use
// (the characterisations and distances of Algorithm 2 are pure reads).
func OverlapMatchWorkers[O cmp.Ordered](a, b []rdf.NodeID, theta float64, char func(rdf.NodeID) []O, dist DistFunc, hooks core.Hooks, workers int) (*WeightedBipartite, error) {
	h := &WeightedBipartite{A: a, B: b}
	if err := hooks.Err(); err != nil {
		return nil, err
	}
	if len(a) == 0 || len(b) == 0 {
		return h, nil
	}
	// Lines 1–6: inverted index, characterisations and frequency counts
	// over B.
	sortedB := make(map[rdf.NodeID][]O, len(b))
	ix := &matchIndex[O]{
		theta:   theta,
		idBound: idBound(b),
		inv:     make(map[O][]rdf.NodeID),
		sortedB: func(m rdf.NodeID) []O { return sortedB[m] },
		charA:   func(n rdf.NodeID) []O { return dedup(char(n)) },
		dist:    dist,
	}
	for _, m := range b {
		objs := dedup(char(m))
		sorted := slices.Clone(objs)
		slices.Sort(sorted)
		sortedB[m] = sorted
		for _, o := range objs {
			ix.inv[o] = append(ix.inv[o], m)
		}
	}
	edges, err := ix.scan(a, hooks, workers)
	if err != nil {
		return nil, err
	}
	h.Edges = edges
	return h, nil
}

// cancelBatch bounds cancellation latency inside one source node's
// verification scan: the hooks' context is re-checked every cancelBatch
// candidates, so a node with a huge candidate list cannot keep running
// distance verification long after the context is cancelled.
const cancelBatch = 64

// parallelMatchMin is the minimum source-set size at which the parallel
// scan pays for its coordination overhead.
const parallelMatchMin = 16

// matchIndex is the shared state of one matching scan (lines 9–19 of
// Algorithm 1): the inverted index and sorted characterisations over B,
// the characterisation of A nodes, and the verification distance. Workers
// never mutate the index and each owns one scratch, which is what makes
// the fan-out safe; the candidate screen merges pre-sorted object slices
// (no per-pair set allocation) and is value-identical to
// Overlap(char(a), char(b)) ≥ θ because both slices are deduplicated (see
// minInter for the early exit).
type matchIndex[O cmp.Ordered] struct {
	theta float64
	// idBound is one past the largest B node ID: the size each worker's
	// seen stamps are allocated at.
	idBound int
	// scratch holds one reusable scratch per worker; scan allocates the
	// missing ones. A caller that scans round after round (nlMatcher)
	// carries the slice over, so the O(|N|) seen stamps are allocated once
	// per worker rather than once per scan.
	scratch []*matchScratch[O]
	// inv maps an object to the B nodes whose characterisation contains
	// it. Posting-list order is irrelevant: it only decides the order in
	// which a source's candidates are screened, and the scan's final
	// (A, B) edge sort erases that; the prefix filter reads only posting
	// lengths (the frequencies).
	inv map[O][]rdf.NodeID
	// sortedB returns a B node's deduplicated characterisation in
	// ascending order, for the merge screen.
	sortedB func(rdf.NodeID) []O
	// charA returns an A node's deduplicated characterisation in
	// first-occurrence order (the deterministic tie-break of the
	// frequency sort). The scan treats the slice as read-only.
	charA func(rdf.NodeID) []O
	dist  DistFunc
}

// matchScratch is one worker's reusable buffers.
type matchScratch[O cmp.Ordered] struct {
	// seen[m] == stamp marks B node m as already screened for the current
	// source node; stamp advances once per source node, so nothing is
	// cleared between sources. Indexed by NodeID (dense combined-graph
	// IDs) and allocated at the first candidate, at idBound entries.
	seen    []uint32
	idBound int
	stamp   uint32
	// need[l] memoises minInter(k, l, θ) for the current source node.
	need    []needMemo
	byFreq  []objFreq[O]
	sortedA []O
}

// needMemo is one memoised minInter value, valid while stamp matches the
// scratch's.
type needMemo struct {
	stamp uint32
	t     int32
}

// objFreq is one characterising object with its posting-list length.
type objFreq[O cmp.Ordered] struct {
	o    O
	freq int
}

// idBound returns one past the largest node ID in ids (0 when empty).
func idBound(ids []rdf.NodeID) int {
	bound := 0
	for _, n := range ids {
		bound = max(bound, int(n)+1)
	}
	return bound
}

// nextSource starts the stamp generation of a new source node, clearing
// the stamp arrays on the (rare) wrap-around so no stale mark survives.
func (sc *matchScratch[O]) nextSource() {
	sc.stamp++
	if sc.stamp == 0 {
		clear(sc.seen)
		clear(sc.need)
		sc.stamp = 1
	}
}

// firstVisit reports whether m is seen for the first time under the
// current source node, and marks it seen.
func (sc *matchScratch[O]) firstVisit(m rdf.NodeID) bool {
	if int(m) >= len(sc.seen) {
		n := max(int(m)+1, sc.idBound)
		sc.seen = append(sc.seen, make([]uint32, n-len(sc.seen))...)
	}
	if sc.seen[m] == sc.stamp {
		return false
	}
	sc.seen[m] = sc.stamp
	return true
}

// minShared returns minInter(k, l, θ), memoised per l for the current
// source node (k and θ are fixed while it is scanned).
func (sc *matchScratch[O]) minShared(k, l int, theta float64) int {
	if l >= len(sc.need) {
		sc.need = append(sc.need, make([]needMemo, l+1-len(sc.need))...)
	}
	if memo := &sc.need[l]; memo.stamp != sc.stamp {
		*memo = needMemo{sc.stamp, int32(minInter(k, l, theta))}
	}
	return int(sc.need[l].t)
}

// scan runs lines 9–19 over the source nodes a. With workers > 1 and
// enough sources, disjoint chunks of a are scanned concurrently and the
// per-chunk edge batches concatenated in chunk (= source) order; the final
// (A, B) sort makes the output identical either way.
func (ix *matchIndex[O]) scan(a []rdf.NodeID, hooks core.Hooks, workers int) ([]BipartiteEdge, error) {
	var edges []BipartiteEdge
	var err error
	if workers > len(a) {
		workers = len(a)
	}
	for len(ix.scratch) < max(workers, 1) {
		ix.scratch = append(ix.scratch, &matchScratch[O]{})
	}
	for _, sc := range ix.scratch {
		sc.idBound = ix.idBound
	}
	if workers <= 1 || len(a) < parallelMatchMin {
		edges, err = ix.scanRange(a, hooks, ix.scratch[0])
	} else {
		edges, err = ix.scanParallel(a, hooks, workers)
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(edges, func(x, y BipartiteEdge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return edges, nil
}

// scanParallel fans the scan out over a worker pool. Chunks are claimed
// through an atomic cursor (candidate-list sizes vary wildly, so static
// splitting would leave workers idle) but results land in a per-chunk slot,
// so the merge is in chunk order and the first error in chunk order wins —
// both independent of scheduling.
func (ix *matchIndex[O]) scanParallel(a []rdf.NodeID, hooks core.Hooks, workers int) ([]BipartiteEdge, error) {
	chunk := (len(a) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (len(a) + chunk - 1) / chunk
	chunkEdges := make([][]BipartiteEdge, nchunks)
	chunkErr := make([]error, nchunks)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.scratch[wk]
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > len(a) {
					hi = len(a)
				}
				chunkEdges[ci], chunkErr[ci] = ix.scanRange(a[lo:hi], hooks, sc)
				if chunkErr[ci] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for ci := range chunkEdges {
		if chunkErr[ci] != nil {
			return nil, chunkErr[ci]
		}
		total += len(chunkEdges[ci])
	}
	edges := make([]BipartiteEdge, 0, total)
	for _, ce := range chunkEdges {
		edges = append(edges, ce...)
	}
	return edges, nil
}

// scanRange scans one contiguous run of source nodes, returning the
// discovered edges in discovery order.
//
// Each candidate is screened and verified as soon as the prefix postings
// first yield it: distance verification is a pure function of the pair and
// a source meets each B node at most once (the seen stamps), so the edge
// set does not depend on candidate order, and scan's (A, B) sort fixes the
// output order. Only the points at which cancellation is observed depend
// on posting order.
func (ix *matchIndex[O]) scanRange(a []rdf.NodeID, hooks core.Hooks, sc *matchScratch[O]) ([]BipartiteEdge, error) {
	var out []BipartiteEdge
	for _, n := range a {
		if err := hooks.Err(); err != nil {
			return nil, err
		}
		objs := ix.charA(n)
		k := len(objs)
		if k == 0 {
			continue
		}
		// Line 11: sort char(n) by ascending frequency in the index
		// (absent objects have frequency 0); ties broken
		// deterministically by scan position, via stable sort.
		sc.byFreq = sc.byFreq[:0]
		for _, o := range objs {
			sc.byFreq = append(sc.byFreq, objFreq[O]{o, len(ix.inv[o])})
		}
		slices.SortStableFunc(sc.byFreq, func(x, y objFreq[O]) int { return cmp.Compare(x.freq, y.freq) })
		sc.sortedA = append(sc.sortedA[:0], objs...)
		slices.Sort(sc.sortedA)
		sc.nextSource()
		screened := 0
		// Lines 12–19: each distinct candidate from the prefix postings
		// goes through the overlap screen, then distance verification.
		for _, of := range sc.byFreq[:prefixLen(k, ix.theta)] {
			for _, m := range ix.inv[of.o] {
				if !sc.firstVisit(m) {
					continue
				}
				if screened++; screened%cancelBatch == 0 {
					if err := hooks.Err(); err != nil {
						return nil, err
					}
				}
				sb := ix.sortedB(m)
				if !sharesAtLeast(sc.sortedA, sb, sc.minShared(k, len(sb), ix.theta)) {
					continue
				}
				if d, ok := ix.dist(n, m); ok {
					out = append(out, BipartiteEdge{A: n, B: m, D: d})
				}
			}
		}
	}
	return out, nil
}

// minInter returns the least intersection size t that passes the overlap
// screen for deduplicated characterisations of sizes k and l, i.e. the
// least t ≤ min(k, l) with !(float64(t)/float64(k+l−t) < θ), or
// min(k, l)+1 when no t does (the pair fails on sizes alone).
//
// The decision inter ≥ minInter(k, l, θ) is bit-identical to the float
// test float64(inter)/float64(k+l−inter) < θ ⇒ reject: the exact ratio
// t/(k+l−t) strictly increases with t, both operands are exact in float64
// and correctly rounded division is monotone, so the computed ratio is
// non-decreasing in t and the float test holds on a prefix of t values.
// That makes the binary search exact. For θ ≤ 0 or a NaN θ the float test
// never rejects, and minInter is 0.
func minInter(k, l int, theta float64) int {
	hi := min(k, l)
	lo, up := 0, hi+1
	for lo < up {
		t := (lo + up) / 2
		if !(float64(t)/float64(k+l-t) < theta) {
			up = t
		} else {
			lo = t + 1
		}
	}
	return lo
}

// sharesAtLeast reports whether the ascending, duplicate-free slices x and
// y have at least need elements in common. The merge stops as soon as the
// answer is decided: once need common elements are found, or once the
// elements left on the shorter side can no longer reach need (which with
// need > min(len(x), len(y)) rejects without merging at all).
func sharesAtLeast[O cmp.Ordered](x, y []O, need int) bool {
	i, j, n := 0, 0, 0
	for n < need {
		if n+min(len(x)-i, len(y)-j) < need {
			return false
		}
		switch {
		case x[i] < y[j]:
			i++
		case y[j] < x[i]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return true
}

// prefixLen computes the number of least-frequent characterising objects to
// scan: max(⌈kθ⌉, ⌊(1−θ)k⌋+1), capped at k.
func prefixLen(k int, theta float64) int {
	paper := int(math.Ceil(float64(k) * theta))
	lossless := int(math.Floor(float64(k)*(1-theta))) + 1
	p := paper
	if lossless > p {
		p = lossless
	}
	if p > k {
		p = k
	}
	if p < 1 {
		p = 1
	}
	return p
}

func dedup[O comparable](objs []O) []O {
	seen := make(map[O]struct{}, len(objs))
	out := objs[:0:0]
	for _, o := range objs {
		if _, ok := seen[o]; !ok {
			seen[o] = struct{}{}
			out = append(out, o)
		}
	}
	return out
}
