package server

import (
	"context"
	"testing"

	"rdfalign"
	"rdfalign/internal/archive"
)

// newTestRegistry registers an archive of the given streamed versions
// under the name "a".
func newTestRegistry(t *testing.T, versions ...int) (*Registry, *rdfalign.Aligner) {
	t.Helper()
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*rdfalign.Graph
	for _, v := range versions {
		graphs = append(graphs, mustStream(t, rdfalign.StreamConfig{Triples: 2000, Version: v, Seed: 3}))
	}
	arch, err := al.BuildArchive(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(al)
	if err := r.Create(context.Background(), "a", arch, false); err != nil {
		t.Fatal(err)
	}
	return r, al
}

// requireURIAnswers checks the head's URI lookups on both sides against a
// linear scan of the graphs.
func requireURIAnswers(t *testing.T, label string, h *head) {
	t.Helper()
	for _, side := range []struct {
		g    *rdfalign.Graph
		find func(string) (rdfalign.NodeID, bool)
	}{{h.anchor, h.findAnchor}, {h.latest, h.findLatest}} {
		if _, ok := side.find("http://absent.example/x"); ok {
			t.Fatalf("%s: absent URI resolved", label)
		}
		checked := 0
		side.g.Nodes(func(n rdfalign.NodeID) {
			if !side.g.IsURI(n) || checked >= 200 {
				return
			}
			checked++
			uri := side.g.Label(n).Value
			got, ok := side.find(uri)
			want, _ := side.g.FindURI(uri)
			if !ok || got != want {
				t.Fatalf("%s: %q resolved to %d, %v; want %d", label, uri, got, ok, want)
			}
		})
	}
}

// TestHeadURIIndexSharedAcrossSwaps: a delta keeps the anchor graph, so the
// new head shares the previous head's anchor index; a version upload
// re-anchors at the previous newest graph and inherits its index. Answers
// match a linear scan throughout.
func TestHeadURIIndexSharedAcrossSwaps(t *testing.T) {
	r, _ := newTestRegistry(t, 1, 2)
	ctx := context.Background()
	h1, err := r.Head("a")
	if err != nil {
		t.Fatal(err)
	}
	requireURIAnswers(t, "created", h1)

	script, err := rdfalign.ParseEditScriptString("+ <http://x/new> <http://x/p> \"added\" .\n")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.AppendDelta(ctx, "a", h1, script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.anchor != h1.anchor || h2.anchorURI != h1.anchorURI {
		t.Fatal("delta did not reuse the anchor's URI index")
	}
	if h2.latestURI == h1.latestURI {
		t.Fatal("delta reused the superseded newest graph's index")
	}
	requireURIAnswers(t, "after delta", h2)
	if _, ok := h2.findLatest("http://x/new"); !ok {
		t.Fatal("inserted URI missing from the new head's latest index")
	}

	h3, err := r.AppendGraph(ctx, "a", mustStream(t, rdfalign.StreamConfig{Triples: 2000, Version: 3, Seed: 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h3.anchorURI != h2.latestURI {
		t.Fatal("version upload did not inherit the previous newest graph's index")
	}
	requireURIAnswers(t, "after upload", h3)
}

// TestVersionInfosMatchLabelScan: the difference-array counts equal the
// per-(entity, version) LabelAt scan and per-interval triple counts.
func TestVersionInfosMatchLabelScan(t *testing.T) {
	r, _ := newTestRegistry(t, 1, 2, 3, 4, 5)
	h, err := r.Head("a")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]VersionInfo, h.version)
	for v := range want {
		want[v].Version = v
		for e := 0; e < h.arch.NumEntities(); e++ {
			if _, ok := h.arch.LabelAt(archive.EntityID(e), v); ok {
				want[v].Nodes++
			}
		}
		for _, row := range h.arch.Rows() {
			for _, iv := range row.Intervals {
				if iv.From <= v && v <= iv.To {
					want[v].Triples++
				}
			}
		}
	}
	got := h.VersionInfos()
	if len(got) != 5 {
		t.Fatalf("%d version infos, want 5", len(got))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("version %d: got %+v, want %+v", v, got[v], want[v])
		}
	}
}
