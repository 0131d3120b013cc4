package archive

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rdfalign/internal/rdf"
)

// copyRaw deep-copies raw columns, so a later comparison detects writes
// into the original's slices.
func copyRaw(r Raw) Raw {
	out := Raw{Versions: r.Versions, Labels: make([][]LabelRun, len(r.Labels)), Rows: make([]TripleRow, len(r.Rows))}
	for e, runs := range r.Labels {
		out.Labels[e] = append([]LabelRun(nil), runs...)
	}
	for i, row := range r.Rows {
		row.Intervals = append([]Interval(nil), row.Intervals...)
		out.Rows[i] = row
	}
	return out
}

// TestFromRawAppendLeavesRawIntact: an archive loaded from raw columns keeps
// them by reference, so appending after RebuildTail must not write into the
// caller's slices — and still matches a one-shot Build.
func TestFromRawAppendLeavesRawIntact(t *testing.T) {
	var opt BuildOptions
	for seed := int64(0); seed < 6; seed++ {
		hist := randomHistory(rand.New(rand.NewSource(seed)), 4)
		a, err := Build(hist[:3], opt)
		if err != nil {
			t.Fatal(err)
		}
		raw := copyRaw(a.Raw())
		want := copyRaw(raw)
		loaded, err := FromRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.RebuildTail(); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.AppendVersion(hist[3], nil, opt); err != nil {
			t.Fatalf("seed %d: append: %v", seed, err)
		}
		if !reflect.DeepEqual(raw, want) {
			t.Fatalf("seed %d: appending to a FromRaw archive modified the caller's raw columns", seed)
		}
		full, err := Build(hist, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArchive(t, fmt.Sprintf("seed %d: loaded append vs build", seed), loaded, full)
	}
}

// TestCloneAppendConcurrentReaders: Clone shares all storage with the
// original, so readers of the original must run safely beside appends to
// its clones (run under -race) and see it unchanged afterwards.
func TestCloneAppendConcurrentReaders(t *testing.T) {
	opt := BuildOptions{ResolveAmbiguous: true}
	hist := randomHistory(rand.New(rand.NewSource(5)), 7)
	a, err := Build(hist[:3], opt)
	if err != nil {
		t.Fatal(err)
	}
	before := copyRaw(a.Raw())
	wantStats := a.GatherStats()
	want, err := Build(hist, opt)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := a.Clone()
			for _, g := range hist[3:] {
				if _, err := c.AppendVersion(g, nil, opt); err != nil {
					errs <- err
					return
				}
			}
			if !reflect.DeepEqual(c.Raw(), want.Raw()) {
				errs <- fmt.Errorf("clone append differs from a one-shot build")
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for v := 0; v < a.Versions(); v++ {
					if _, err := a.Snapshot(v); err != nil {
						errs <- err
						return
					}
					for e := 0; e < a.NumEntities(); e++ {
						a.LabelAt(EntityID(e), v)
					}
				}
				if a.GatherStats() != wantStats {
					errs <- fmt.Errorf("stats of the original changed")
					return
				}
				n := 0
				for _, row := range a.Rows() {
					n += len(row.Intervals)
				}
				for _, runs := range a.Raw().Labels {
					n += len(runs)
				}
				if n == 0 {
					errs <- fmt.Errorf("empty archive")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Raw(), before) {
		t.Fatal("original archive changed by clone appends")
	}
}

// TestResumeMapPersistent: updates to the resume map copy only the overlay
// (or fold it into a fresh base), leave the maps they started from intact,
// and answer every lookup like the plain map they replace.
func TestResumeMapPersistent(t *testing.T) {
	const n = 200
	graph := func(prefix string, uris int) (*rdf.Graph, []rdf.NodeID) {
		b := rdf.NewBuilder(prefix)
		p := b.URI("http://p")
		for i := 0; i < uris; i++ {
			b.Triple(b.URI(fmt.Sprintf("%s/%d", prefix, i)), p, b.Literal("x"))
		}
		g := b.MustGraph()
		var nodes []rdf.NodeID
		g.Nodes(func(n rdf.NodeID) {
			if g.IsURI(n) {
				nodes = append(nodes, n)
			}
		})
		return g, nodes
	}
	plain := make(map[string]EntityID)
	apply := func(m resumeMap, g *rdf.Graph, nodes []rdf.NodeID, base EntityID) resumeMap {
		entity := make([]EntityID, g.NumNodes())
		for i := range entity {
			entity[i] = base + EntityID(i)
		}
		for _, n := range nodes {
			plain[g.Label(n).Value] = entity[n]
		}
		return m.with(g, entity, nodes)
	}
	g0, all := graph("http://a", n)
	m0 := apply(resumeMap{}, g0, all, 0)
	if len(m0.over) != 0 || len(m0.base) != n+1 {
		t.Fatalf("first update should fold into base: base %d over %d", len(m0.base), len(m0.over))
	}
	g1, few := graph("http://a", 3)
	m1 := apply(m0, g1, few, 1000)
	if len(m1.over) != 4 || !reflect.DeepEqual(m1.base, m0.base) || len(m0.over) != 0 {
		t.Fatalf("small update: over %d, base shared %v, old over %d", len(m1.over), reflect.DeepEqual(m1.base, m0.base), len(m0.over))
	}
	m2 := apply(m1, g0, all, 2000)
	if len(m2.over) != 0 || len(m1.over) != 4 {
		t.Fatalf("large update should fold: over %d, old over %d", len(m2.over), len(m1.over))
	}
	for uri, want := range plain {
		if got, ok := m2.get(uri); !ok || got != want {
			t.Fatalf("get(%q) = %d, %v; want %d", uri, got, ok, want)
		}
	}
	if _, ok := m2.get("http://absent"); ok {
		t.Fatal("absent URI resolved")
	}
}
