package similarity

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// screenThetas are the θ values the screen tests sweep: the extremes, the
// paper's 0.65 default and values whose ratio boundaries fall exactly on
// small fractions (1/2, 3/5, 2/3, 1).
var screenThetas = []float64{0.05, 0.5, 0.6, 0.65, 2.0 / 3.0, 0.9, 0.99, 1}

// TestMinInterMatchesFloatScreen: for every pair of characterisation sizes
// k, l ≤ 64 and every possible intersection size, the early-exit decision
// (inter ≥ minInter, taken by sharesAtLeast on slices with exactly that
// intersection) equals the float screen it replaces,
// !(float64(inter)/float64(k+l−inter) < θ).
func TestMinInterMatchesFloatScreen(t *testing.T) {
	const maxSize = 64
	var x, y []int
	for _, theta := range screenThetas {
		for k := 0; k <= maxSize; k++ {
			for l := 0; l <= maxSize; l++ {
				need := minInter(k, l, theta)
				if need < 0 || need > min(k, l)+1 {
					t.Fatalf("minInter(%d, %d, %v) = %d outside [0, %d]", k, l, theta, need, min(k, l)+1)
				}
				for inter := 0; inter <= min(k, l); inter++ {
					want := !(float64(inter)/float64(k+l-inter) < theta)
					if got := inter >= need; got != want {
						t.Fatalf("k=%d l=%d inter=%d θ=%v: inter ≥ minInter (%d) = %v, float screen passes = %v",
							k, l, inter, theta, need, got, want)
					}
					// x = [0, k), y = [k−inter, k−inter+l): exactly
					// inter common elements.
					x, y = x[:0], y[:0]
					for i := 0; i < k; i++ {
						x = append(x, i)
					}
					for i := 0; i < l; i++ {
						y = append(y, k-inter+i)
					}
					if got := sharesAtLeast(x, y, need); got != want {
						t.Fatalf("k=%d l=%d inter=%d θ=%v: sharesAtLeast(need=%d) = %v, float screen passes = %v",
							k, l, inter, theta, need, got, want)
					}
					if got := sharesAtLeast(y, x, need); got != want {
						t.Fatalf("k=%d l=%d inter=%d θ=%v: sharesAtLeast swapped (need=%d) = %v, float screen passes = %v",
							k, l, inter, theta, need, got, want)
					}
				}
			}
		}
	}
}

// skewedChars draws n characterisations over uint64 objects with a heavily
// skewed frequency: object 0..3 are near-universal (the (rdf:type, C)
// out-colours of a typed dataset), the rest follow a rough power law over a
// small vocabulary. Characterisations hold 1–6 draws, duplicates included
// (the matcher deduplicates), and sometimes share nothing at all.
func skewedChars(r *rand.Rand, n, vocab int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		k := 1 + r.Intn(6)
		for j := 0; j < k; j++ {
			var o uint64
			switch {
			case r.Intn(3) == 0:
				o = uint64(r.Intn(4))
			default:
				// Power-law-ish: the minimum of two uniforms biases
				// towards small objects.
				o = 4 + uint64(min(r.Intn(vocab), r.Intn(vocab)))
			}
			out[i] = append(out[i], o)
		}
	}
	return out
}

// TestOverlapMatchOracleSkewed: OverlapMatchWorkers equals a brute-force
// all-pairs oracle — every pair with Overlap(char(a), char(b)) ≥ θ that the
// distance accepts, sorted by (A, B) — on random small inputs with skewed
// object frequencies, for every worker count and the screen's θ sweep.
// Node IDs interleave A and B, the ID space has gaps and B is shuffled, so
// posting order differs from ID order.
func TestOverlapMatchOracleSkewed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		na, nb := 1+r.Intn(48), 1+r.Intn(48)
		vocab := 2 + r.Intn(12)
		chars := map[rdf.NodeID][]uint64{}
		var a, b []rdf.NodeID
		id := rdf.NodeID(r.Intn(5))
		for _, cs := range skewedChars(r, na+nb, vocab) {
			if len(a) < na && (len(b) == nb || r.Intn(2) == 0) {
				a = append(a, id)
			} else {
				b = append(b, id)
			}
			chars[id] = cs
			id += rdf.NodeID(1 + r.Intn(3))
		}
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		char := func(n rdf.NodeID) []uint64 { return chars[n] }
		// A pure distance that rejects some screened pairs, so the oracle
		// checks verification as well as the screen.
		dist := func(n, m rdf.NodeID) (float64, bool) {
			d := float64((int(n)*31+int(m)*17)%10) / 10
			return d, d <= 0.7
		}
		theta := screenThetas[r.Intn(len(screenThetas))]
		var want []BipartiteEdge
		for _, n := range a {
			for _, m := range b {
				if Overlap(char(n), char(m)) < theta {
					continue
				}
				if d, ok := dist(n, m); ok {
					want = append(want, BipartiteEdge{A: n, B: m, D: d})
				}
			}
		}
		slices.SortFunc(want, func(x, y BipartiteEdge) int {
			if x.A != y.A {
				return int(x.A - y.A)
			}
			return int(x.B - y.B)
		})
		for _, workers := range []int{1, 2, 4} {
			h, err := OverlapMatchWorkers(a, b, theta, char, dist, core.Hooks{}, workers)
			if err != nil {
				t.Logf("seed %d workers %d: %v", seed, workers, err)
				return false
			}
			if len(h.Edges) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(h.Edges, want) {
				t.Logf("seed %d θ=%v workers %d:\n got %v\nwant %v", seed, theta, workers, h.Edges, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestMatchScratchStampWrap: when the per-source stamp wraps around, the
// seen marks and the memoised minInter entries of earlier sources are
// cleared, so no B node is skipped and no stale bound is reused.
func TestMatchScratchStampWrap(t *testing.T) {
	sc := &matchScratch[uint64]{}
	sc.nextSource()
	if !sc.firstVisit(7) || sc.firstVisit(7) {
		t.Fatal("firstVisit must report a node once per source")
	}
	if got := sc.minShared(3, 3, 0.65); got != 3 {
		t.Fatalf("minShared(3, 3, 0.65) = %d, want 3", got)
	}
	sc.stamp = ^uint32(0) - 1
	sc.seen[7] = ^uint32(0)
	sc.need[3] = needMemo{^uint32(0), 99}
	sc.nextSource() // stamp = MaxUint32, equal to the planted marks
	if sc.firstVisit(7) {
		t.Fatal("planted mark at the current stamp must read as seen")
	}
	sc.nextSource() // wraps
	if sc.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", sc.stamp)
	}
	if !sc.firstVisit(7) {
		t.Error("seen mark survived the stamp wrap")
	}
	if got := sc.minShared(3, 3, 0.65); got != 3 {
		t.Errorf("minShared after wrap = %d, want 3 (stale memo reused)", got)
	}
}
