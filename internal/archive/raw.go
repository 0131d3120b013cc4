package archive

import (
	"fmt"

	"rdfalign/internal/rdf"
)

// LabelRun is one entity's label over a version interval; Raw exposes the
// runs to the snapshot serialiser (internal/snapshot).
type LabelRun struct {
	Label    rdf.Label
	Interval Interval
}

// Raw exposes the archive's internal columns for serialisation. The
// invariants of a built archive hold:
//
//   - Rows is sorted strictly ascending by (S, P, O) entity IDs,
//   - every row has at least one interval; intervals per row are
//     ascending and disjoint (next.From > prev.To), each inside
//     [0, Versions),
//   - Labels[e] are the label runs of entity e, ascending and disjoint
//     the same way.
//
// TotalTriples (Σ |E_v| over the archived versions) is not part of Raw:
// it equals the summed interval lengths over all rows and is recomputed
// by FromRaw.
type Raw struct {
	Versions int
	Labels   [][]LabelRun
	Rows     []TripleRow
}

// Raw returns the archive's internal columns. Slices alias the archive's
// storage and must not be modified; appends never write them, so they
// stay valid after the archive grows.
func (a *Archive) Raw() Raw {
	return Raw{Versions: a.versions, Labels: a.labels, Rows: a.rows}
}

// FromRaw reconstructs an Archive from its columns, validating the
// built-archive invariants so that corrupt input errors here instead
// of misbehaving in LabelAt or Snapshot later. TotalTriples is recomputed
// from the interval lengths, so GatherStats on a loaded archive matches
// the freshly built one exactly. The archive keeps r's slices: the caller
// must not modify them afterwards, and appending to the archive (after
// RebuildTail) never does.
func FromRaw(r Raw) (*Archive, error) {
	if r.Versions < 1 {
		return nil, fmt.Errorf("archive: raw archive has %d versions", r.Versions)
	}
	a := &Archive{versions: r.Versions, labels: r.Labels, rows: r.Rows}
	for e, runs := range r.Labels {
		prevTo := -1
		for i, run := range runs {
			if run.Label.Kind != rdf.URI && run.Label.Kind != rdf.Literal && run.Label.Kind != rdf.Blank {
				return nil, fmt.Errorf("archive: raw entity %d run %d has unknown label kind %d", e, i, run.Label.Kind)
			}
			if err := checkInterval(run.Interval, prevTo, r.Versions); err != nil {
				return nil, fmt.Errorf("archive: raw entity %d run %d: %w", e, i, err)
			}
			prevTo = run.Interval.To
		}
	}
	prev := [3]EntityID{-1, -1, -1}
	for i, row := range r.Rows {
		key := [3]EntityID{row.S, row.P, row.O}
		if !lessKey(prev, key) {
			return nil, fmt.Errorf("archive: raw row %d (%d,%d,%d) out of (S,P,O) order", i, row.S, row.P, row.O)
		}
		prev = key
		for _, e := range key {
			if e < 0 || int(e) >= len(r.Labels) {
				return nil, fmt.Errorf("archive: raw row %d references entity %d outside [0,%d)", i, e, len(r.Labels))
			}
		}
		if len(row.Intervals) == 0 {
			return nil, fmt.Errorf("archive: raw row %d has no intervals", i)
		}
		prevTo := -1
		for j, iv := range row.Intervals {
			if err := checkInterval(iv, prevTo, r.Versions); err != nil {
				return nil, fmt.Errorf("archive: raw row %d interval %d: %w", i, j, err)
			}
			prevTo = iv.To
			a.totalTriples += iv.To - iv.From + 1
		}
	}
	return a, nil
}

func checkInterval(iv Interval, prevTo, versions int) error {
	if iv.From <= prevTo || iv.From > iv.To || iv.To >= versions {
		return fmt.Errorf("interval [%d,%d] invalid after To=%d (versions=%d)", iv.From, iv.To, prevTo, versions)
	}
	return nil
}

func lessKey(a, b [3]EntityID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}
