// Package archive implements the compact multi-version representation the
// paper proposes as future work (§6): "decorate triples with intervals that
// represent versions where the triple was present", using the constructed
// alignments to connect node identities across versions. It also measures
// the observation §6 bases its second proposal on — "triples tend to enter
// and leave with their subject" — so the design space of moving interval
// information to subject nodes can be evaluated on real version histories.
//
// An Archive stores:
//
//   - entities: persistent identities chained across versions through the
//     1-to-1 portion of consecutive alignments, with per-version labels
//     (so URI renames are recorded as label runs on one entity),
//   - triple rows: (subject, predicate, object) entity triples annotated
//     with the version intervals in which the triple was present.
//
// Any version can be reconstructed exactly (Snapshot), and Stats reports
// the compression achieved over storing every version separately.
package archive

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/delta"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// EntityID is a persistent node identity across versions.
type EntityID int32

// Interval is an inclusive range of version indexes (0-based).
type Interval struct {
	From, To int
}

// TripleRow is one archived triple with its presence intervals.
type TripleRow struct {
	S, P, O   EntityID
	Intervals []Interval
}

// Archive is the compact multi-version store. Archives are persistent: an
// append builds the new state in freshly allocated columns and swaps them
// into the receiver, never writing memory another Archive value can reach.
// Any number of readers can therefore share an archive with a writer
// appending to its Clone.
type Archive struct {
	versions int
	// labels[e] are the label runs of entity e. After Build or an append
	// they all sub-slice one arena.
	labels [][]LabelRun
	// rows are strictly (S, P, O)-sorted; after Build or an append their
	// Intervals all sub-slice one arena.
	rows []TripleRow
	// totalTriples is Σ |E_v| over the input versions.
	totalTriples int
	// tail is the live construction state AppendVersion extends; nil for
	// archives loaded from raw columns (FromRaw), which cannot append.
	// A tail is never modified: an append installs a new one.
	tail *archiveTail
}

// archiveTail is what Build's per-version loop carries from one version to
// the next: the newest version's graph, its node→entity assignment, and the
// URI resume map. Keeping it on the finished archive lets AppendVersion add
// one version by aligning a single pair instead of replaying the history.
type archiveTail struct {
	lastGraph *rdf.Graph
	cur       []EntityID
	resume    resumeMap
}

// resumeMap maps a URI label to the entity that most recently carried it,
// so an entity can resume after skipping versions (URIs are persistent
// identifiers; cf. the paper's disappearing-and-reappearing EFO URIs,
// §5.1). Renamed-across-a-gap entities cannot be resumed this way and
// start fresh — conservative but sound.
//
// The map is persistent: base and over are never written once published,
// so archive states share them. over holds the entries newer than base; an
// update copies over alone and folds it into a fresh base once it outgrows
// an eighth of base, so a version costs time in proportion to the URIs
// whose entry it changes.
type resumeMap struct {
	base, over map[string]EntityID
}

func (m resumeMap) get(uri string) (EntityID, bool) {
	if e, ok := m.over[uri]; ok {
		return e, true
	}
	e, ok := m.base[uri]
	return e, ok
}

// with returns m with the URIs of the given nodes of g mapped to their
// entities.
func (m resumeMap) with(g *rdf.Graph, entity []EntityID, nodes []rdf.NodeID) resumeMap {
	var upd []rdf.NodeID
	for _, n := range nodes {
		if e, ok := m.get(g.Label(n).Value); !ok || e != entity[n] {
			upd = append(upd, n)
		}
	}
	if len(upd) == 0 {
		return m
	}
	var out resumeMap
	var dst map[string]EntityID
	if len(m.over)+len(upd) > len(m.base)/8 {
		dst = maps.Clone(m.base)
		if dst == nil {
			dst = make(map[string]EntityID, len(m.over)+len(upd))
		}
		out.base = dst
	} else {
		dst = make(map[string]EntityID, len(m.over)+len(upd))
		out.base, out.over = m.base, dst
	}
	maps.Copy(dst, m.over)
	for _, n := range upd {
		dst[g.Label(n).Value] = entity[n]
	}
	return out
}

// BuildOptions configures archive construction.
type BuildOptions struct {
	// UseOverlap selects the Overlap alignment for consecutive pairs
	// (default is Hybrid — deterministic and fast; Overlap additionally
	// chains edited entities at the cost of the heuristic's runtime).
	UseOverlap bool
	// ResolveAmbiguous additionally chains entities inside *ambiguous*
	// alignment classes (several members on each side — predicate-only
	// URIs, duplicated blanks) by matching occurrence profiles with the
	// overlap measure. Essential for archiving direct-mapping exports
	// with per-version prefixes: without it every predicate entity
	// churns each version and triple rows never chain.
	ResolveAmbiguous bool
	// Theta is the Overlap threshold (default 0.65).
	Theta float64
	// Epsilon is the propagation stabilisation threshold.
	Epsilon float64
	// Refine selects the recoloring variant for the per-pair hybrid
	// refinements (the context/adaptive/key extensions); the zero value
	// is the paper's default outbound recoloring.
	Refine core.RefineOptions
	// Workers parallelises the per-pair overlap matching phases with
	// UseOverlap (similarity.OverlapOptions.Workers) when > 1; <= 1 runs
	// sequentially, and refinement is always sequential. Archives are
	// bit-identical for every worker count.
	Workers int
	// Hooks threads cancellation and progress through the per-pair
	// alignments; Build additionally checks the context before each pair
	// and reports one StageArchive event per archived version (Round is
	// the 1-based version number, Total the version count). The zero
	// value disables both.
	Hooks core.Hooks
}

// Build archives a sequence of graph versions. Consecutive versions are
// aligned; nodes connected by an unambiguous (mutual one-to-one) alignment
// pair continue the same entity, everything else starts a fresh one.
func Build(graphs []*rdf.Graph, opt BuildOptions) (*Archive, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("archive: no versions")
	}
	if opt.Theta == 0 {
		opt.Theta = similarity.DefaultTheta
	}
	if err := opt.Hooks.Err(); err != nil {
		return nil, err
	}
	// Version 0: every node is a fresh entity.
	g0 := graphs[0]
	cur := make([]EntityID, g0.NumNodes())
	var uris []rdf.NodeID
	for n := range cur {
		cur[n] = EntityID(n)
		if g0.IsURI(rdf.NodeID(n)) {
			uris = append(uris, rdf.NodeID(n))
		}
	}
	a := &Archive{}
	a.commit(g0, cur, len(cur), uris)
	opt.Hooks.Round(core.StageArchive, 1, len(graphs))

	for v := 1; v < len(graphs); v++ {
		if err := opt.Hooks.Err(); err != nil {
			return nil, err
		}
		if err := a.appendAligned(graphs[v], opt); err != nil {
			return nil, err
		}
		opt.Hooks.Round(core.StageArchive, v+1, len(graphs))
	}
	return a, nil
}

// appendAligned aligns the tail's graph with g2, chains entities across the
// alignment and records g2 as the next version. It is the per-version step
// shared by Build's loop and AppendVersion. The alignment is the only
// fallible part and runs before the archive changes, so an error leaves the
// archive exactly as it was.
func (a *Archive) appendAligned(g2 *rdf.Graph, opt BuildOptions) error {
	part, c, err := alignPair(a.tail.lastGraph, g2, opt)
	if err != nil {
		return err
	}
	next := make([]EntityID, g2.NumNodes())
	entities, changed := chainEntities(c, part, a.tail, next, len(a.labels), opt.ResolveAmbiguous)
	a.commit(g2, next, entities, changed)
	return nil
}

// AppendVersion extends the archive with one more version. The new version
// is either g, or — when g is nil — the result of applying the edit script
// to the newest archived version's graph. Only the new consecutive pair is
// aligned, and the new version is merged into the (S, P, O)-sorted rows in
// one linear pass, so appending costs one pair alignment plus a merge
// linear in the archive's size, regardless of how many versions it holds.
// A full Build over the extended history produces an identical archive
// (same rows, labels, stats and snapshots).
//
// The new state is written to freshly allocated columns; memory shared
// with a Clone, or handed out by Rows and Raw, is never written.
//
// AppendVersion is transactional: on any error — an edit script that does
// not apply, or cancellation through opt.Hooks — the archive is unchanged
// and a later append can retry. Archives loaded from raw columns (FromRaw)
// carry no construction tail and cannot append; rebuild with Build.
//
// opt should be the BuildOptions the archive was built with: chaining
// decisions depend on them, and mixing options across versions makes the
// archive equivalent to no single Build call. It returns the appended
// version's graph (g itself, or the script application result).
func (a *Archive) AppendVersion(g *rdf.Graph, script *delta.Script, opt BuildOptions) (*rdf.Graph, error) {
	if a.tail == nil {
		return nil, fmt.Errorf("archive: archive has no construction tail (loaded from raw columns); rebuild with Build to append")
	}
	if opt.Theta == 0 {
		opt.Theta = similarity.DefaultTheta
	}
	if err := opt.Hooks.Err(); err != nil {
		return nil, err
	}
	g2 := g
	if g2 == nil {
		if script == nil {
			return nil, fmt.Errorf("archive: AppendVersion needs a graph or an edit script")
		}
		res, err := script.Apply(rdf.NewEditor(a.tail.lastGraph))
		if err != nil {
			return nil, fmt.Errorf("archive: append version: %w", err)
		}
		g2 = res.Graph
	}
	if err := a.appendAligned(g2, opt); err != nil {
		return nil, err
	}
	opt.Hooks.Round(core.StageArchive, a.versions, a.versions)
	return g2, nil
}

// Clone returns an archive that appends independently of a. Archives are
// persistent (see AppendVersion), so the copy shares all of a's storage,
// including the construction tail, and costs O(1).
func (a *Archive) Clone() *Archive {
	b := *a
	return &b
}

func alignPair(g1, g2 *rdf.Graph, opt BuildOptions) (*core.Partition, *rdf.Combined, error) {
	c := rdf.Union(g1, g2)
	in := core.NewInterner()
	eng := &core.Engine{Opt: opt.Refine, Hooks: opt.Hooks}
	hybrid, _, err := eng.Hybrid(c, in)
	if err != nil {
		return nil, nil, err
	}
	if !opt.UseOverlap {
		return hybrid, c, nil
	}
	res, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
		Theta:   opt.Theta,
		Epsilon: opt.Epsilon,
		Hooks:   opt.Hooks,
		Workers: opt.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Xi.P, c, nil
}

// chainEntities continues entities across one aligned pair: a target node
// inherits the entity of its alignment partner when the partnership is
// mutual and unambiguous (exactly one node on each side of the class);
// failing that, a URI node resumes the dormant entity that last carried its
// label (identity across gaps); everything else starts a fresh entity,
// numbered from entities up. It fills next and returns the entity count
// afterwards, plus the URI nodes of the target whose resume entry may have
// changed: all of them except those continuing the entity of a source node
// with the same URI, whose entry already names that entity.
func chainEntities(c *rdf.Combined, p *core.Partition, t *archiveTail, next []EntityID,
	entities int, resolve bool) (int, []rdf.NodeID) {
	g1, g2 := c.SourceGraph(), c.TargetGraph()
	// Colors are dense interner IDs, so classes are indexed by color.
	type classInfo struct {
		src       rdf.NodeID
		srcN, tgN int32
	}
	var maxColor core.Color
	for _, col := range p.Colors() {
		maxColor = max(maxColor, col)
	}
	classes := make([]classInfo, maxColor+1)
	for i, col := range p.Colors() {
		ci := &classes[col]
		if i < c.N1 {
			ci.src = rdf.NodeID(i)
			ci.srcN++
		} else {
			ci.tgN++
		}
	}
	used := make([]bool, entities)
	var changed []rdf.NodeID
	for j := range next {
		next[j] = -1
		n := rdf.NodeID(j)
		ci := &classes[p.Color(c.FromTarget(n))]
		if ci.srcN == 1 && ci.tgN == 1 {
			next[j] = t.cur[ci.src]
			used[next[j]] = true
			if g2.IsURI(n) && g1.Label(ci.src) == g2.Label(n) {
				continue
			}
		}
		if g2.IsURI(n) {
			changed = append(changed, n)
		}
	}
	if resolve {
		resolveAmbiguous(c, p, t.cur, next, used)
	}
	for j := range next {
		if next[j] != -1 {
			continue
		}
		n := rdf.NodeID(j)
		if g2.IsURI(n) {
			if e, ok := t.resume.get(g2.Label(n).Value); ok && !used[e] {
				next[j] = e
				used[e] = true
				continue
			}
		}
		next[j] = EntityID(entities)
		entities++
	}
	return entities, changed
}

// commit records g as version a.versions under the node→entity assignment
// entity (injective, with entity IDs below entities) and installs the
// result: fresh label and row columns, and a fresh tail whose resume map
// carries the given URI nodes' entries.
func (a *Archive) commit(g *rdf.Graph, entity []EntityID, entities int, uris []rdf.NodeID) {
	v := a.versions
	nodeOf := make([]int32, entities)
	for e := range nodeOf {
		nodeOf[e] = -1
	}
	for n, e := range entity {
		nodeOf[e] = int32(n)
	}
	var resume resumeMap
	if a.tail != nil {
		resume = a.tail.resume
	}
	*a = Archive{
		versions:     v + 1,
		labels:       mergeLabels(a.labels, g, v, nodeOf),
		rows:         mergeRows(a.rows, g, v, entity, nodeOf),
		totalTriples: a.totalTriples + g.NumTriples(),
		tail:         &archiveTail{lastGraph: g, cur: entity, resume: resume.with(g, entity, uris)},
	}
}

// mergeLabels returns the label runs of old extended by version v, in which
// entity e is node nodeOf[e] of g (-1: absent). A present entity extends
// its last run when that run ends at v-1 with the same label, and opens a
// new run otherwise. All runs are copied into one fresh arena.
func mergeLabels(old [][]LabelRun, g *rdf.Graph, v int, nodeOf []int32) [][]LabelRun {
	extend := make([]bool, len(nodeOf))
	size := 0
	for e, n := range nodeOf {
		var runs []LabelRun
		if e < len(old) {
			runs = old[e]
		}
		size += len(runs)
		if n < 0 {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].Interval.To == v-1 && runs[k].Label == g.Label(rdf.NodeID(n)) {
			extend[e] = true
		} else {
			size++
		}
	}
	labels := make([][]LabelRun, len(nodeOf))
	arena := make([]LabelRun, 0, size)
	for e, n := range nodeOf {
		start := len(arena)
		if e < len(old) {
			arena = append(arena, old[e]...)
		}
		switch {
		case n < 0:
		case extend[e]:
			arena[len(arena)-1].Interval.To = v
		default:
			arena = append(arena, LabelRun{Label: g.Label(rdf.NodeID(n)), Interval: Interval{v, v}})
		}
		labels[e] = arena[start:len(arena):len(arena)]
	}
	return labels
}

// rowKey is a row's (S, P, O) entity triple.
type rowKey struct{ s, p, o EntityID }

func cmpKey(x, y rowKey) int {
	if x.s != y.s {
		return cmp.Compare(x.s, y.s)
	}
	if x.p != y.p {
		return cmp.Compare(x.p, y.p)
	}
	return cmp.Compare(x.o, y.o)
}

func keyOf(r *TripleRow) rowKey { return rowKey{r.S, r.P, r.O} }

// mergeRows returns the rows of old extended by version v: g's triples
// mapped through entity, in a linear merge against the (S, P, O)-sorted
// old rows. A row continuing from v-1 extends its last interval, a
// returning row gains an interval, a new row is placed in order. All
// intervals are copied into one fresh arena.
func mergeRows(old []TripleRow, g *rdf.Graph, v int, entity []EntityID, nodeOf []int32) []TripleRow {
	// The new version's keys in (S, P, O) order: subjects in entity order,
	// each subject's few (P, O) pairs sorted in place. An injective entity
	// assignment keeps the keys distinct.
	keys := make([]rowKey, 0, g.NumTriples())
	for e, n := range nodeOf {
		if n < 0 {
			continue
		}
		start := len(keys)
		for _, ed := range g.Out(rdf.NodeID(n)) {
			keys = append(keys, rowKey{EntityID(e), entity[ed.P], entity[ed.O]})
		}
		if len(keys)-start > 1 {
			slices.SortFunc(keys[start:], cmpKey)
		}
	}
	// Size the columns exactly with a counting merge, then fill them.
	numRows, numIvs := len(old), 0
	for i := range old {
		numIvs += len(old[i].Intervals)
	}
	i := 0
	for _, k := range keys {
		for i < len(old) && cmpKey(keyOf(&old[i]), k) < 0 {
			i++
		}
		if i < len(old) && keyOf(&old[i]) == k {
			if ivs := old[i].Intervals; ivs[len(ivs)-1].To != v-1 {
				numIvs++
			}
			i++
		} else {
			numRows++
			numIvs++
		}
	}
	rows := make([]TripleRow, 0, numRows)
	arena := make([]Interval, 0, numIvs)
	emit := func(k rowKey, start int) {
		rows = append(rows, TripleRow{S: k.s, P: k.p, O: k.o, Intervals: arena[start:len(arena):len(arena)]})
	}
	i = 0
	for _, k := range keys {
		for ; i < len(old) && cmpKey(keyOf(&old[i]), k) < 0; i++ {
			start := len(arena)
			arena = append(arena, old[i].Intervals...)
			emit(keyOf(&old[i]), start)
		}
		start := len(arena)
		if i < len(old) && keyOf(&old[i]) == k {
			arena = append(arena, old[i].Intervals...)
			if last := &arena[len(arena)-1]; last.To == v-1 {
				last.To = v
			} else {
				arena = append(arena, Interval{v, v})
			}
			i++
		} else {
			arena = append(arena, Interval{v, v})
		}
		emit(k, start)
	}
	for ; i < len(old); i++ {
		start := len(arena)
		arena = append(arena, old[i].Intervals...)
		emit(keyOf(&old[i]), start)
	}
	return rows
}

// Versions returns the number of archived versions.
func (a *Archive) Versions() int { return a.versions }

// NumEntities returns the number of persistent entities.
func (a *Archive) NumEntities() int { return len(a.labels) }

// NumRows returns the number of archived triple rows.
func (a *Archive) NumRows() int { return len(a.rows) }

// Rows exposes the archived rows (read-only).
func (a *Archive) Rows() []TripleRow { return a.rows }

// LabelAt returns the label of an entity at a version, and whether the
// entity is present there.
func (a *Archive) LabelAt(e EntityID, v int) (rdf.Label, bool) {
	for _, run := range a.labels[e] {
		if run.Interval.From <= v && v <= run.Interval.To {
			return run.Label, true
		}
	}
	return rdf.Label{}, false
}

// Snapshot reconstructs version v exactly (up to node identity).
func (a *Archive) Snapshot(v int) (*rdf.Graph, error) {
	g, _, err := a.snapshotEntities(v)
	return g, err
}

// snapshotEntities reconstructs version v together with the node→entity
// assignment of the reconstructed graph — the mapping commit
// originally held for that version, re-expressed over the snapshot's node
// IDs. Blank nodes cannot be mapped back through labels (every blank
// carries the same ⊥ label), so the assignment is collected while the
// builder allocates nodes.
func (a *Archive) snapshotEntities(v int) (*rdf.Graph, []EntityID, error) {
	if v < 0 || v >= a.versions {
		return nil, nil, fmt.Errorf("archive: version %d out of range [0, %d)", v, a.versions)
	}
	b := rdf.NewBuilder(fmt.Sprintf("snapshot-v%d", v+1))
	var entities []EntityID
	node := func(e EntityID) (rdf.NodeID, error) {
		l, ok := a.LabelAt(e, v)
		if !ok {
			return 0, fmt.Errorf("archive: entity %d absent at version %d but referenced by a row", e, v)
		}
		var n rdf.NodeID
		switch l.Kind {
		case rdf.URI:
			n = b.URI(l.Value)
		case rdf.Literal:
			n = b.Literal(l.Value)
		default:
			n = b.Blank(fmt.Sprintf("e%d", e))
		}
		for int(n) >= len(entities) {
			entities = append(entities, -1)
		}
		entities[n] = e
		return n, nil
	}
	for _, row := range a.rows {
		if !covers(row.Intervals, v) {
			continue
		}
		s, err := node(row.S)
		if err != nil {
			return nil, nil, err
		}
		p, err := node(row.P)
		if err != nil {
			return nil, nil, err
		}
		o, err := node(row.O)
		if err != nil {
			return nil, nil, err
		}
		b.Triple(s, p, o)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, nil, err
	}
	return g, entities, nil
}

// CanAppend reports whether the archive carries the construction tail
// AppendVersion extends. Freshly built archives can always append;
// archives reconstructed from raw columns (FromRaw, i.e. snapshot loads)
// cannot until RebuildTail restores the tail.
func (a *Archive) CanAppend() bool { return a.tail != nil }

// LatestGraph returns the newest archived version's graph without a
// reconstruction when the construction tail is live, and nil otherwise
// (use Snapshot(Versions()-1), or RebuildTail first).
func (a *Archive) LatestGraph() *rdf.Graph {
	if a.tail == nil {
		return nil
	}
	return a.tail.lastGraph
}

// RebuildTail reconstructs the construction tail of an archive loaded from
// raw columns, so AppendVersion works on snapshot-loaded archives: the
// newest version's graph is reconstructed (Snapshot semantics — blank
// nodes reappear under synthetic e<id> labels), its node→entity assignment
// is recovered from the label runs, and the URI resume map is replayed
// from every entity's URI runs. Appending to a rebuilt tail chains
// entities exactly as appending to the original archive would: chaining
// reads labels and structure, neither of which the snapshot round-trip
// disturbs. RebuildTail on an archive that already has a tail is a no-op.
func (a *Archive) RebuildTail() error {
	if a.tail != nil {
		return nil
	}
	last := a.versions - 1
	g, entities, err := a.snapshotEntities(last)
	if err != nil {
		return err
	}
	cur := make([]EntityID, g.NumNodes())
	for n := range cur {
		cur[n] = -1
		if n < len(entities) {
			cur[n] = entities[n]
		}
	}
	for n, e := range cur {
		if e < 0 {
			return fmt.Errorf("archive: rebuild tail: node %d of version %d has no entity", n, last)
		}
	}
	// The resume map holds, per URI, the entity that most recently carried
	// it: replaying the versions one by one is equivalent to taking, per
	// URI, the run with the greatest end version (at any single version a
	// URI labels at most one node, hence one entity).
	lastSeen := make(map[string]EntityID)
	lastTo := make(map[string]int)
	for e, runs := range a.labels {
		for _, run := range runs {
			if run.Label.Kind != rdf.URI {
				continue
			}
			if to, ok := lastTo[run.Label.Value]; !ok || run.Interval.To > to {
				lastTo[run.Label.Value] = run.Interval.To
				lastSeen[run.Label.Value] = EntityID(e)
			}
		}
	}
	a.tail = &archiveTail{lastGraph: g, cur: cur, resume: resumeMap{base: lastSeen}}
	return nil
}

func covers(ivs []Interval, v int) bool {
	for _, iv := range ivs {
		if iv.From <= v && v <= iv.To {
			return true
		}
	}
	return false
}

// Stats summarises the archive and quantifies §6's coupling observation.
type Stats struct {
	Versions     int
	TotalTriples int // Σ |E_v| over the inputs
	Rows         int // archived triple rows
	Intervals    int // total interval annotations
	Entities     int
	// CompressionRatio = Rows / TotalTriples: the fraction of per-version
	// triple storage the interval representation needs.
	CompressionRatio float64
	// Subject coupling: how often a triple enters (interval start beyond
	// version 0) or leaves (interval end before the last version)
	// together with its subject entity appearing or disappearing.
	EnterEvents, EnterWithSubject int
	LeaveEvents, LeaveWithSubject int
}

// GatherStats computes the statistics.
func (a *Archive) GatherStats() Stats {
	st := Stats{
		Versions:     a.versions,
		TotalTriples: a.totalTriples,
		Rows:         len(a.rows),
		Entities:     len(a.labels),
	}
	if st.TotalTriples > 0 {
		st.CompressionRatio = float64(st.Rows) / float64(st.TotalTriples)
	}
	present := func(e EntityID, v int) bool {
		if v < 0 || v >= a.versions {
			return false
		}
		_, ok := a.LabelAt(e, v)
		return ok
	}
	for _, row := range a.rows {
		st.Intervals += len(row.Intervals)
		for _, iv := range row.Intervals {
			if iv.From > 0 {
				st.EnterEvents++
				if !present(row.S, iv.From-1) {
					st.EnterWithSubject++
				}
			}
			if iv.To < a.versions-1 {
				st.LeaveEvents++
				if !present(row.S, iv.To+1) {
					st.LeaveWithSubject++
				}
			}
		}
	}
	return st
}

// String renders the stats.
func (s Stats) String() string {
	coupled := func(a, b int) string {
		if b == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
	}
	return fmt.Sprintf(
		"versions=%d totalTriples=%d rows=%d intervals=%d entities=%d compression=%.3f enterWithSubject=%s leaveWithSubject=%s",
		s.Versions, s.TotalTriples, s.Rows, s.Intervals, s.Entities, s.CompressionRatio,
		coupled(s.EnterWithSubject, s.EnterEvents), coupled(s.LeaveWithSubject, s.LeaveEvents))
}
