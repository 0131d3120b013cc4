package rdfalign

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"testing"
)

// dumpAlignment serialises an Alignment to a canonical byte form: the
// iteration counters followed by every aligned pair in enumeration order.
// Two alignments are byte-identical here exactly when the engines produced
// the same relation, so disk-mode runs can be diffed against heap runs.
func dumpAlignment(a *Alignment) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "refine=%d overlap=%d pairs=%d\n",
		a.RefineIterations(), a.OverlapRounds(), a.PairCount())
	a.Pairs(func(n1, n2 NodeID) {
		fmt.Fprintf(&buf, "%d\t%d\n", n1, n2)
	})
	return buf.Bytes()
}

// alignPair aligns g1 and g2 with the deblank method plus extra options and
// returns the canonical dump.
func alignPair(t *testing.T, g1, g2 *Graph, extra ...Option) []byte {
	t.Helper()
	al, err := NewAligner(append([]Option{WithMethod(Deblank)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	return dumpAlignment(a)
}

// TestLowMemoryDiskAlignment is the out-of-core regression test: aligning
// two versions of the generated stream corpus in -storage disk mode under
// a tight debug.SetMemoryLimit budget must complete and produce output
// byte-identical to the unconstrained in-memory run. The memory limit is
// soft (Go only GCs harder near it), so the assertion is identity plus
// completion under pressure, not an OOM guarantee; the CI low-memory smoke
// step enforces the hard GOMEMLIMIT cap on the million-triple corpus.
func TestLowMemoryDiskAlignment(t *testing.T) {
	var v1, v2 bytes.Buffer
	cfg := StreamConfig{Triples: 30_000, Seed: 42}
	if _, err := StreamNTriples(&v1, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Version = 2
	if _, err := StreamNTriples(&v2, cfg); err != nil {
		t.Fatal(err)
	}
	g1, err := ParseNTriples(&v1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriples(&v2, "v2")
	if err != nil {
		t.Fatal(err)
	}

	want := alignPair(t, g1, g2) // unconstrained, in-memory

	// Tight budget for the disk run: well below what the corpus needs on
	// the heap with room for the (heap-resident) parsed inputs. Restore
	// the previous limit even on failure — it is process-global.
	prev := debug.SetMemoryLimit(64 << 20)
	defer debug.SetMemoryLimit(prev)

	st := OutOfCore(t.TempDir())
	defer st.Close()
	got := alignPair(t, g1, g2, WithStorage(st))
	if !bytes.Equal(got, want) {
		t.Errorf("disk-mode alignment differs from in-memory: got %d bytes, want %d bytes\ngot:  %.200s\nwant: %.200s",
			len(got), len(want), got, want)
	}
}

// TestLowMemoryDiskAlignmentBlanks drives the external-merge signature
// grouping end to end through the public API: the EFO corpus at full scale
// has well over the spill threshold of blank nodes in the first deblank
// round, so disk mode takes the sequential-scan + merge path rather than
// the in-heap grouping, and must still be byte-identical. With the context
// and adaptive extensions the same rounds must stay off that path, which
// implements only the default recoloring; their output must match too.
func TestLowMemoryDiskAlignmentBlanks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale EFO corpus in -short mode")
	}
	d, err := GenerateEFO(EFOConfig{Versions: 2, Scale: 1.0, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := d.Graphs[0], d.Graphs[1]
	// The merge path only engages when a round's dirty frontier reaches
	// core's spill threshold (4096); the first deblank round is dirty on
	// every blank node of the union.
	if n := g1.NumBlanks() + g2.NumBlanks(); n < 4096 {
		t.Fatalf("corpus too small to exercise the spill path: %d blanks", n)
	}

	prev := debug.SetMemoryLimit(256 << 20)
	defer debug.SetMemoryLimit(prev)

	for _, opts := range [][]Option{nil, {WithContextual(), WithAdaptive()}} {
		want := alignPair(t, g1, g2, opts...)
		st := OutOfCore(t.TempDir())
		got := alignPair(t, g1, g2, append(opts, WithStorage(st))...)
		st.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("%d extra options: disk-mode alignment differs from in-memory: got %d bytes, want %d bytes",
				len(opts), len(got), len(want))
		}
	}
}
