package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdfalign"
	"rdfalign/internal/core"
	"rdfalign/internal/similarity"
)

// The two batch workloads run cmd/rdfalign once per job, as a user would:
// stream-deblank parses two N-Triples versions of the streamed
// DBpedia-like corpus and aligns them with -method deblank;
// gtopdb-overlap loads two graph snapshots of the GtoPdb corpus and
// aligns them with -method overlap, printing the aligned URI pairs so
// they can be scored against the generator's truth file.

// cliTheta is cmd/rdfalign's default -theta; the stat block prints it.
const cliTheta = 0.65

// batchSpec describes one batch workload's inputs and job.
type batchSpec struct {
	method    string    // rdfalign -method
	inputs    [2]string // the two versions, in the workload directory
	snapshots bool      // inputs are graph snapshots (else N-Triples)
	pairs     bool      // the job prints URI pairs, scored against truth
	truth     string    // truth file (pairs only)
	// generate writes the inputs into dir through cmd/datagen.
	generate func(cfg *config, dir string) error
	// expect computes the expected output for the generated inputs when
	// no recorded one exists for the seed.
	expect func(cfg *config, dir string) (*expectation, error)
}

// expectation is a batch job's expected output: the stat block and, for
// workloads scored against truth, the pair counts behind precision and
// recall.
type expectation struct {
	Block   string `json:"block"`
	Pairs   int    `json:"pairs,omitempty"`   // URI pairs printed
	Correct int    `json:"correct,omitempty"` // of those, pairs in the truth file
	Truth   int    `json:"truth,omitempty"`   // pairs in the truth file
}

func (e *expectation) String() string {
	s := strings.ReplaceAll(strings.TrimSpace(e.Block), "\n", " | ")
	if e.Truth > 0 {
		s += fmt.Sprintf(" | pairs=%d correct=%d truth=%d", e.Pairs, e.Correct, e.Truth)
	}
	return s
}

// recordedJSON holds expected outputs recorded at the benchmark's default
// sizes, by workload and seed: {"gtopdb-overlap": {"1": {...}}}.
//
//go:embed expected.json
var recordedJSON []byte

func recorded(cfg *config) (*expectation, bool) {
	if cfg.sizes != defaultSizes {
		return nil, false
	}
	var all map[string]map[string]*expectation
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		return nil, false
	}
	e, ok := all[cfg.workload][strconv.FormatInt(cfg.seed, 10)]
	return e, ok
}

var streamSpec = batchSpec{
	method: "deblank",
	inputs: [2]string{"v1.nt", "v2.nt"},
	generate: func(cfg *config, dir string) error {
		return datagen(cfg, "-dataset", "bench", "-triples", strconv.Itoa(cfg.sizes.streamTriples),
			"-versions", "2", "-seed", strconv.FormatInt(cfg.seed, 10), "-out", dir)
	},
	expect: func(cfg *config, dir string) (*expectation, error) {
		return streamOracle(filepath.Join(dir, "v1.nt"), filepath.Join(dir, "v2.nt"))
	},
}

var gtopdbSpec = batchSpec{
	method:    "overlap",
	inputs:    [2]string{"v1.snap", "v2.snap"},
	snapshots: true,
	pairs:     true,
	truth:     "truth-v1-v2.tsv",
	generate: func(cfg *config, dir string) error {
		return datagen(cfg, "-dataset", "gtopdb", "-scale", strconv.FormatFloat(cfg.sizes.gtopdbScale, 'g', -1, 64),
			"-versions", "2", "-seed", strconv.FormatInt(cfg.seed, 10), "-format", "snap", "-out", dir)
	},
	expect: referenceOverlap,
}

var batchSpecs = map[string]*batchSpec{"stream-deblank": &streamSpec, "gtopdb-overlap": &gtopdbSpec}

// recordExpected generates a batch workload's inputs for the seed once and
// prints their expected output as one JSON line; expected.json collects
// these lines by workload and seed.
func recordExpected(cfg *config, w io.Writer) error {
	s, ok := batchSpecs[cfg.workload]
	if !ok {
		return fmt.Errorf("-record: %s has no recorded output", cfg.workload)
	}
	dir := filepath.Join(cfg.work, cfg.workload)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := s.generate(cfg, dir); err != nil {
		return err
	}
	e, err := s.expect(cfg, dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "expected": e})
}

func runStreamDeblank(cfg *config) (*result, error) {
	return runBatch(cfg, &streamSpec)
}

func runGtoPdbOverlap(cfg *config) (*result, error) {
	return runBatch(cfg, &gtopdbSpec)
}

func datagen(cfg *config, args ...string) error {
	cmd := exec.Command(filepath.Join(cfg.bin, "datagen"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("datagen %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return nil
}

// jobArgs is the cmd/rdfalign command line of one job.
func (s *batchSpec) jobArgs(dir string) []string {
	args := []string{"-method", s.method}
	if s.pairs {
		args = append(args, "-pairs")
	}
	return append(args, filepath.Join(dir, s.inputs[0]), filepath.Join(dir, s.inputs[1]))
}

// setupBatch generates the workload's inputs setupReps times (each
// overwriting the last) and returns the directory and set-up times.
func setupBatch(cfg *config, s *batchSpec) (string, []float64, error) {
	dir := filepath.Join(cfg.work, cfg.workload)
	var times []float64
	for rep := 0; rep < cfg.sizes.setupReps; rep++ {
		if err := os.RemoveAll(dir); err != nil {
			return "", nil, err
		}
		start := time.Now()
		if err := s.generate(cfg, dir); err != nil {
			return "", nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return dir, times, syncDir(dir)
}

// syncDir flushes the files in dir to disk, so that writing back the
// freshly generated inputs does not compete with the jobs that read them.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		f, err := os.OpenFile(filepath.Join(dir, e.Name()), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// job is one finished cmd/rdfalign run.
type job struct {
	wall   float64 // seconds from start to exit, stdout fully read
	rssMB  float64 // peak resident set of the rdfalign process
	stdout []byte
}

func runCLI(cfg *config, args []string) (job, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "rdfalign"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return job{}, fmt.Errorf("rdfalign %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	j := job{wall: wall, stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		j.rssMB = float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
	}
	return j, nil
}

// jobOutput is what a batch job printed: the stat block and, for jobs run
// with -pairs, the aligned URI pairs (source, target).
type jobOutput struct {
	block string
	pairs [][2]string
}

// statBlockLines is the number of stat-block lines cmd/rdfalign prints
// before any pairs: source, target, method, two entity counts, ratio.
const statBlockLines = 6

func parseOutput(stdout []byte) (jobOutput, error) {
	var out jobOutput
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var block strings.Builder
	for n := 0; sc.Scan(); n++ {
		line := sc.Text()
		if n < statBlockLines {
			block.WriteString(line)
			block.WriteByte('\n')
			continue
		}
		src, tgt, ok := strings.Cut(line, "\t")
		if !ok {
			return out, fmt.Errorf("unexpected output line %q", line)
		}
		out.pairs = append(out.pairs, [2]string{src, tgt})
	}
	out.block = block.String()
	return out, sc.Err()
}

// score reduces a job's output to an expectation: its stat block and,
// against truth (source URI → target URI), its pair counts.
func score(out jobOutput, truth map[string]string) *expectation {
	e := &expectation{Block: out.block}
	if truth == nil {
		return e
	}
	e.Pairs, e.Truth = len(out.pairs), len(truth)
	for _, p := range out.pairs {
		if truth[p[0]] == p[1] {
			e.Correct++
		}
	}
	return e
}

func loadTruth(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	truth := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		src, tgt, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		truth[src] = tgt
	}
	return truth, nil
}

func runBatch(cfg *config, s *batchSpec) (*result, error) {
	dir, setupTimes, err := setupBatch(cfg, s)
	if err != nil {
		return nil, err
	}
	var truth map[string]string
	if s.truth != "" {
		if truth, err = loadTruth(filepath.Join(dir, s.truth)); err != nil {
			return nil, err
		}
	}
	res := &result{}
	inputs, err := describeInputs(dir, s)
	if err != nil {
		return nil, err
	}
	noteProvenance(res, cfg, inputs)

	if cfg.trace {
		res.addDetail("setup_s", median(setupTimes), "s", len(setupTimes))
		err = traceBatch(cfg, res, dir, s, truth)
	} else {
		err = measureBatch(cfg, res, dir, s, truth, setupTimes)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measureBatch is the untraced run: jobs back to back for the run's
// seconds (at least minJobs), then every job's output is checked against
// the expected one.
func measureBatch(cfg *config, res *result, dir string, s *batchSpec, truth map[string]string, setupTimes []float64) error {
	var walls, rss []float64
	var outputs []*expectation
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 1; n <= cfg.sizes.minJobs || time.Now().Before(deadline); n++ {
		j, err := runCLI(cfg, s.jobArgs(dir))
		res.attempted++
		if err != nil {
			res.fail("job %d: %v", n, err)
			continue
		}
		out, err := parseOutput(j.stdout)
		if err != nil {
			res.fail("job %d: %v", n, err)
			continue
		}
		walls = append(walls, j.wall)
		rss = append(rss, j.rssMB)
		outputs = append(outputs, score(out, truth))
	}
	if len(walls) == 0 {
		return fmt.Errorf("every job failed")
	}
	want, err := expected(cfg, dir, s)
	if err != nil {
		return err
	}
	for i, got := range outputs {
		if *got != *want {
			res.fail("job %d output differs from the expected one:\n  got  %s\n  want %s", i+1, got, want)
		}
	}
	noteScore(res, want)
	res.note("job walls (s): %.3f", walls)

	job := median(walls)
	res.add("setup_s", median(setupTimes), "s", len(setupTimes))
	res.add("job_s", job, "s", len(walls))
	res.add("job_p90_s", quantile(walls, 0.9), "s", len(walls))
	res.add("peak_rss_mb", median(rss), "MB", len(rss))
	res.add("request_p50_ms", job*1000, "ms", len(walls))
	res.add("request_p99_ms", quantile(walls, 0.99)*1000, "ms", len(walls))
	return nil
}

// describeInputs sizes the two input versions for provenance.
func describeInputs(dir string, s *batchSpec) ([]inputInfo, error) {
	var infos []inputInfo
	for _, name := range s.inputs {
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		n := 0
		if s.snapshots {
			info, err := rdfalign.ReadSnapshotInfoFile(path)
			if err != nil {
				return nil, err
			}
			for _, g := range info.Graphs {
				n += g.Triples
			}
		} else if n, err = countLines(path); err != nil {
			return nil, err
		}
		infos = append(infos, inputInfo{Name: name, Triples: n, Bytes: st.Size()})
	}
	return infos, nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	n := 0
	for {
		k, err := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// expected returns the output every job of the run must print: the
// planted one (tests), the one recorded for the seed, or — for a seed
// nothing was recorded for — the workload's own expectation.
func expected(cfg *config, dir string, s *batchSpec) (*expectation, error) {
	if cfg.expected != nil {
		return cfg.expected, nil
	}
	if e, ok := recorded(cfg); ok {
		return e, nil
	}
	return s.expect(cfg, dir)
}

func noteScore(res *result, e *expectation) {
	if e.Truth == 0 {
		return
	}
	res.note("precision %.6f (%d of %d URI pairs in the truth file), recall %.6f (%d of %d truth pairs)",
		float64(e.Correct)/float64(e.Pairs), e.Correct, e.Pairs,
		float64(e.Correct)/float64(e.Truth), e.Correct, e.Truth)
}

// readSnapshotGraph loads a graph snapshot the way cmd/rdfalign loads a
// .snap input: the newest version of whatever the file holds.
func readSnapshotGraph(path string) (*rdfalign.Graph, error) {
	h, err := rdfalign.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return h.Version(h.Versions() - 1)
}

// formatBlock renders the stat block exactly as cmd/rdfalign prints it.
func formatBlock(g1, g2 *rdfalign.Graph, method string, all, uris, common, union int) string {
	ratio := 1.0
	if union != 0 {
		ratio = float64(common) / float64(union)
	}
	return fmt.Sprintf("source: %s\ntarget: %s\nmethod=%s theta=%.2f\naligned entities (all): %d\naligned entities (URI): %d\naligned-edge ratio: %.4f (%d of %d signatures)\n",
		rdfalign.GatherStats(g1), rdfalign.GatherStats(g2), method, cliTheta, all, uris, ratio, common, union)
}

// referenceOverlap aligns the gtopdb-overlap inputs through the library's
// Aligner — the path cmd/rdfalign wraps — for seeds without a recorded
// expectation. It checks that the command and the library agree and that
// every job is deterministic; only recorded expectations and the
// stream-deblank oracle are independent of the aligner itself.
func referenceOverlap(cfg *config, dir string) (*expectation, error) {
	g1, err := readSnapshotGraph(filepath.Join(dir, "v1.snap"))
	if err != nil {
		return nil, err
	}
	g2, err := readSnapshotGraph(filepath.Join(dir, "v2.snap"))
	if err != nil {
		return nil, err
	}
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Overlap), rdfalign.WithTheta(cliTheta))
	if err != nil {
		return nil, err
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		return nil, err
	}
	st := a.EdgeStats()
	var buf bytes.Buffer
	buf.WriteString(formatBlock(g1, g2, "overlap", a.AlignedEntityCount(false), a.AlignedEntityCount(true), st.Common, st.Union))
	a.Pairs(func(n1, n2 rdfalign.NodeID) {
		if g1.IsURI(n1) && g2.IsURI(n2) {
			fmt.Fprintf(&buf, "%s\t%s\n", g1.Label(n1).Value, g2.Label(n2).Value)
		}
	})
	out, err := parseOutput(buf.Bytes())
	if err != nil {
		return nil, err
	}
	truth, err := loadTruth(filepath.Join(dir, "truth-v1-v2.tsv"))
	if err != nil {
		return nil, err
	}
	return score(out, truth), nil
}

// event is one progress event of a traced job, stamped on arrival.
type event struct {
	core.ProgressEvent
	at float64 // tracer time
}

// tracedJob runs one batch job in-process, calling each layer's public
// function in the order cmd/rdfalign's pipeline calls them, with a span
// around every call. It returns the job's root span and its output, in
// cmd/rdfalign's format.
func tracedJob(tr *tracer, dir string, s *batchSpec) (int, []byte, error) {
	root := tr.job("job")
	var events []event
	hooks := core.Hooks{Ctx: context.Background(), OnRound: func(e core.ProgressEvent) {
		events = append(events, event{e, tr.now()})
	}}
	counted := func(parent int, name string, f func() error) error {
		id := tr.child(parent, name)
		before := readRuntime()
		err := f()
		tr.close(id, map[string]float64{"alloc_mb": readRuntime().sub(before).allocs / mb})
		return err
	}

	var g [2]*rdfalign.Graph
	for i, name := range s.inputs {
		path := filepath.Join(dir, name)
		var err error
		if s.snapshots {
			err = counted(root, "snapshot.read", func() (err error) {
				g[i], err = readSnapshotGraph(path)
				return err
			})
		} else {
			err = counted(root, "rdf.parse", func() error {
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				defer f.Close()
				g[i], err = rdfalign.ParseNTriples(f, [2]string{"source", "target"}[i], rdfalign.WithParseWorkers(-1))
				return err
			})
		}
		if err != nil {
			return 0, nil, err
		}
	}

	id := tr.child(root, "rdf.union")
	c := rdfalign.Union(g[0], g[1])
	tr.close(id, nil)

	id = tr.child(root, "core.base_partition")
	base := core.LabelPartition(c.Graph, core.NewInterner())
	tr.close(id, nil)
	baseSpan := id

	eng := &core.Engine{Hooks: hooks}
	refine := func(f func() (*core.Partition, error)) (*core.Partition, error) {
		id := tr.child(root, "core.refine")
		from := len(events)
		p, err := f()
		tr.close(id, roundAttrs(events[from:], core.StageRefine))
		return p, err
	}
	part, err := refine(func() (*core.Partition, error) {
		p, _, err := eng.DeblankFrom(c.Graph, base)
		return p, err
	})
	if err != nil {
		return 0, nil, err
	}
	var inner *core.Alignment
	if s.method == "overlap" {
		hybrid, err := refine(func() (*core.Partition, error) {
			p, _, err := eng.HybridFromDeblank(c, part)
			return p, err
		})
		if err != nil {
			return 0, nil, err
		}
		id := tr.child(root, "similarity.overlap")
		from := len(events)
		ov, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta: cliTheta, Hooks: hooks, State: &similarity.OverlapState{},
		})
		if err != nil {
			return 0, nil, err
		}
		tr.close(id, map[string]float64{
			"rounds":           float64(ov.Rounds),
			"propagate_rounds": roundAttrs(events[from:], core.StagePropagate)["rounds"],
		})
		derivePropagate(tr, id, events[from:])
		part, inner = ov.Xi.P, ov.Alignment(c)
	} else {
		inner = core.NewAlignment(c, part)
	}

	var st core.EdgeAlignStats
	var all, uris int
	counted(root, "report.edgestats", func() error {
		st = core.EdgeAlignment(c, part)
		return nil
	})
	counted(root, "report.entitycount", func() error {
		all, uris = inner.AlignedEntityCount(false), inner.AlignedEntityCount(true)
		return nil
	})
	// cmd/rdfalign prints with unbuffered fmt.Printf calls to a pipe; so
	// does the traced job, so that report.print costs what it costs there.
	var out bytes.Buffer
	err = counted(root, "report.print", func() error {
		pr, pw, err := os.Pipe()
		if err != nil {
			return err
		}
		drained := make(chan error, 1)
		go func() {
			_, err := io.Copy(&out, pr)
			pr.Close()
			drained <- err
		}()
		fmt.Fprint(pw, formatBlock(g[0], g[1], s.method, all, uris, st.Common, st.Union()))
		if s.pairs {
			inner.Pairs(func(n1, n2 rdfalign.NodeID) {
				if g[0].IsURI(n1) && g[1].IsURI(n2) {
					fmt.Fprintf(pw, "%s\t%s\n", g[0].Label(n1).Value, g[1].Label(n2).Value)
				}
			})
		}
		pw.Close()
		return <-drained
	})
	if err != nil {
		return 0, nil, err
	}
	tr.close(root, nil)
	// Counted after the job closes, so the count is not part of its wall.
	tr.setAttrs(baseSpan, map[string]float64{"labels": float64(base.NumClasses())})
	return root, out.Bytes(), nil
}

// roundAttrs counts a stage's rounds and their summed Dirty in events.
func roundAttrs(events []event, stage string) map[string]float64 {
	var rounds, dirty float64
	for _, e := range events {
		if e.Stage == stage {
			rounds++
			dirty += float64(e.Dirty)
		}
	}
	return map[string]float64{"rounds": rounds, "dirty": dirty}
}

// derivePropagate adds core.propagate child spans under the overlap span
// from its progress events. Each overlap round runs Enrich, the weighted
// propagation rounds, then the non-literal match; the events mark the end
// of each propagation round and of each overlap round. An interval that
// ends one propagation round and starts after another is pure
// propagation. The first propagation round of each overlap round cannot
// be told apart from the Enrich (and, in round 1, the literal match)
// before it, so it stays in similarity.overlap's self time.
func derivePropagate(tr *tracer, overlapSpan int, events []event) {
	for i := 1; i < len(events); i++ {
		if events[i].Stage == core.StagePropagate && events[i].Round > 1 && events[i-1].Stage == core.StagePropagate {
			tr.add(overlapSpan, "core.propagate", events[i-1].at, events[i].at)
		}
	}
}

// traceBatch is the traced run: one untraced cmd/rdfalign job as the base
// of the tracing overhead, then in-process traced jobs for the run's
// seconds (at least one), each checked like an untraced job.
func traceBatch(cfg *config, res *result, dir string, s *batchSpec, truth map[string]string) error {
	want, err := expected(cfg, dir, s)
	if err != nil {
		return err
	}
	check := func(what string, stdout []byte) {
		out, err := parseOutput(stdout)
		if err != nil {
			res.fail("%s: %v", what, err)
			return
		}
		if got := score(out, truth); *got != *want {
			res.fail("%s output differs from the expected one:\n  got  %s\n  want %s", what, got, want)
		}
	}
	res.attempted++
	untraced, err := runCLI(cfg, s.jobArgs(dir))
	if err != nil {
		res.fail("untraced job: %v", err)
	} else {
		check("untraced job", untraced.stdout)
	}

	tr := newTracer()
	lv := layerValues{}
	var walls []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		before := readRuntime()
		res.attempted++
		root, stdout, err := tracedJob(tr, dir, s)
		rt := readRuntime().sub(before)
		if err != nil {
			res.fail("traced job %d: %v", len(walls)+1, err)
			break
		}
		check(fmt.Sprintf("traced job %d", len(walls)+1), stdout)
		walls = append(walls, tr.get(root).dur())
		collectBatchLayers(tr, tr.get(root).Job, rt, lv)
		noteSelfTimes(res, tr, root)
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	res.note("spans of %d traced jobs written to %s", len(walls), path)
	noteScore(res, want)
	lv.emit(res)
	if len(walls) > 0 {
		res.addDetail("trace.job_s", median(walls), "s", len(walls))
		if untraced.wall > 0 {
			res.addDetail("trace.untraced_job_s", untraced.wall, "s", 1)
			res.addDetail("trace.overhead_s", median(walls)-untraced.wall, "s", len(walls))
		}
	}
	return nil
}

// collectBatchLayers derives one traced batch job's per-layer metrics.
func collectBatchLayers(tr *tracer, job int, rt runtimeCounters, lv layerValues) {
	sum := func(name string) float64 { v, _ := tr.sumNamed(job, name); return v }
	self := tr.selfTimes(job)
	if _, n := tr.sumNamed(job, "rdf.parse"); n > 0 {
		lv.put("rdf.parse_s", sum("rdf.parse"))
		lv.put("rdf.parse_alloc_mb", tr.attrSum(job, "rdf.parse", "alloc_mb"))
	}
	if _, n := tr.sumNamed(job, "snapshot.read"); n > 0 {
		lv.put("snapshot.read_s", sum("snapshot.read"))
		lv.put("snapshot.read_alloc_mb", tr.attrSum(job, "snapshot.read", "alloc_mb"))
	}
	lv.put("rdf.union_s", sum("rdf.union"))
	lv.put("core.base_partition_s", sum("core.base_partition"))
	lv.put("core.base_labels", tr.attrSum(job, "core.base_partition", "labels"))
	lv.put("core.refine_s", sum("core.refine"))
	lv.put("core.refine_rounds", tr.attrSum(job, "core.refine", "rounds"))
	lv.put("core.refine_dirty", tr.attrSum(job, "core.refine", "dirty"))
	if _, n := tr.sumNamed(job, "similarity.overlap"); n > 0 {
		lv.put("core.propagate_s", sum("core.propagate"))
		lv.put("core.propagate_rounds", tr.attrSum(job, "similarity.overlap", "propagate_rounds"))
		lv.put("similarity.overlap_s", self["similarity.overlap"])
		lv.put("similarity.overlap_rounds", tr.attrSum(job, "similarity.overlap", "rounds"))
	}
	lv.put("report.edgestats_s", sum("report.edgestats"))
	lv.put("report.entitycount_s", sum("report.entitycount"))
	var reportAlloc float64
	for _, name := range []string{"report.edgestats", "report.entitycount", "report.print"} {
		reportAlloc += tr.attrSum(job, name, "alloc_mb")
	}
	lv.put("report.alloc_mb", reportAlloc)
	lv.put("runtime.gc_cpu_s", rt.gcCPU)
	lv.put("runtime.alloc_mb", rt.allocs/mb)
}

// noteSelfTimes prints one traced job's self time per span name and per
// layer, and what of the job's wall no layer span covers.
func noteSelfTimes(res *result, tr *tracer, root int) {
	job := tr.get(root).Job
	wall := tr.get(root).dur()
	self := tr.selfTimes(job)
	uncovered := self["job"]
	delete(self, "job")
	layers := map[string]float64{}
	var covered float64
	for name, v := range self {
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += v
		covered += v
	}
	var b strings.Builder
	fmt.Fprintf(&b, "self times of traced job %d (wall %.3f s):", job, wall)
	for _, name := range sortedNames(self) {
		fmt.Fprintf(&b, " %s=%.3fs(%.1f%%)", name, self[name], 100*self[name]/wall)
	}
	res.note("%s", b.String())
	b.Reset()
	fmt.Fprintf(&b, "per-layer self times of traced job %d:", job)
	for _, name := range sortedNames(layers) {
		fmt.Fprintf(&b, " %s=%.3fs(%.1f%%)", name, layers[name], 100*layers[name]/wall)
	}
	res.note("%s", b.String())
	res.note("layer spans cover %.3f s of the %.3f s job wall (%.2f%%); uncovered remainder %.4f s",
		covered, wall, 100*covered/wall, uncovered)
}
