package rdfalign

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestComputeDeltaPublicAPI(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := Align(g1, g2, Options{Method: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(a)
	if d.Retained+len(d.Removed) != g1.NumTriples() {
		t.Errorf("retained %d + removed %d != |E1| %d", d.Retained, len(d.Removed), g1.NumTriples())
	}
	if d.Retained+len(d.Added) != g2.NumTriples() {
		t.Errorf("retained %d + added %d != |E2| %d", d.Retained, len(d.Added), g2.NumTriples())
	}
	text := FormatDelta(a, d)
	if !strings.Contains(text, "retained=") {
		t.Errorf("FormatDelta output:\n%s", text)
	}
	// The removed middle-name triple from Figure 1 must appear.
	if !strings.Contains(text, `"Pawel"`) {
		t.Errorf("delta should list the removed middle name:\n%s", text)
	}
	// Self-delta is empty.
	self, err := Align(g1, g1, Options{Method: Deblank})
	if err != nil {
		t.Fatal(err)
	}
	sd := ComputeDelta(self)
	if len(sd.Removed) != 0 || len(sd.Added) != 0 {
		t.Errorf("self delta = %s", sd.Summary())
	}
}

func TestBuildArchivePublicAPI(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 3, Scale: 0.005, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildArchive(d.Graphs, ArchiveOptions{ResolveAmbiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Versions() != 3 {
		t.Errorf("Versions = %d", a.Versions())
	}
	st := a.GatherStats()
	if st.Rows == 0 || st.CompressionRatio <= 0 || st.CompressionRatio > 1 {
		t.Errorf("archive stats = %s", st)
	}
	for v := 0; v < 3; v++ {
		snap, err := a.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumTriples() != d.Graphs[v].NumTriples() {
			t.Errorf("v%d: snapshot triples %d != original %d",
				v+1, snap.NumTriples(), d.Graphs[v].NumTriples())
		}
	}
	if _, err := BuildArchive(nil, ArchiveOptions{}); err == nil {
		t.Error("empty history accepted")
	}
}

func TestAdaptiveOptionPublicAPI(t *testing.T) {
	// The §5.1 predicate scenario through the public API: with Adaptive,
	// version-prefixed column predicates align one-to-one.
	mk := func(prefix string) *Graph {
		b := NewBuilder(prefix)
		row := b.URI(prefix + "row/1")
		b.Triple(row, b.URI(prefix+"name"), b.Literal("calcitonin"))
		b.Triple(row, b.URI(prefix+"species"), b.Literal("Human"))
		return b.MustGraph()
	}
	g1 := mk("http://a/")
	g2 := mk("http://b/")
	plain, err := Align(g1, g2, Options{Method: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.MatchesOfURI("http://a/name"); len(got) != 2 {
		t.Errorf("plain hybrid should lump both predicates, got %v", got)
	}
	adaptive, err := Align(g1, g2, Options{Method: Hybrid, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := adaptive.MatchesOfURI("http://a/name"); len(got) != 1 || got[0] != "http://b/name" {
		t.Errorf("adaptive hybrid should align name 1-1, got %v", got)
	}
	if got := adaptive.MatchesOfURI("http://a/species"); len(got) != 1 || got[0] != "http://b/species" {
		t.Errorf("adaptive hybrid should align species 1-1, got %v", got)
	}
	// The similarity methods honour the extension options for their
	// hybrid base as well.
	for _, m := range []Method{Overlap, SigmaEdit} {
		a, err := Align(g1, g2, Options{Method: m, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.MatchesOfURI("http://a/name"); len(got) != 1 || got[0] != "http://b/name" {
			t.Errorf("%v with Adaptive: name matches = %v", m, got)
		}
	}
}

// TestArchiveDeltaAppendsMatchBuild: extending an archive the way the
// server's delta job does — ApplyDelta on the live session, Clone,
// AppendVersion of the maintained target — serialises to the same snapshot
// bytes as a one-shot build over the same versions, and leaves every
// earlier archive state byte-identical.
func TestArchiveDeltaAppendsMatchBuild(t *testing.T) {
	cfg := StreamConfig{Triples: 5000, Seed: 4, Churn: 0.01, Growth: 1.0000001}
	var buf bytes.Buffer
	if _, err := StreamNTriples(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	g1, err := ParseNTriplesString(buf.String(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, _, err := StreamDelta(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	fwd, err := ParseEditScript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ApplyEditScript(g1, fwd)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	al, err := NewAligner(WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{g1, g2}
	arch, err := al.BuildArchive(ctx, graphs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(ctx, g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(a *Archive) []byte {
		var b bytes.Buffer
		if err := WriteArchiveSnapshot(&b, a); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var states []*Archive
	var written [][]byte
	for i, s := range []*EditScript{fwd.Inverse(), fwd, fwd.Inverse(), fwd} {
		next, err := a.ApplyDelta(ctx, s)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		states, written = append(states, arch), append(written, snapshot(arch))
		arch2 := arch.Clone()
		if _, err := al.AppendVersion(ctx, arch2, next.Target(), nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		graphs = append(graphs, next.Target())
		a, arch = next, arch2
	}
	want, err := al.BuildArchive(ctx, graphs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(arch), snapshot(want)) {
		t.Fatal("delta-appended archive serialises differently from a one-shot build")
	}
	for i, st := range states {
		if !bytes.Equal(snapshot(st), written[i]) {
			t.Fatalf("archive state %d changed after later appends", i)
		}
	}
}
