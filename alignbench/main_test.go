package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The benchmark's own tests run every workload at tiny sizes against
// programs built from this checkout.

var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "alignbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"rdfalign/cmd/rdfalign", "rdfalign/cmd/rdfalignd", "rdfalign/cmd/datagen")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build programs:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var tinySizes = sizes{
	streamTriples: 3000,
	gtopdbScale:   0.01,
	serveTriples:  3000,
	deltas:        2,
	churn:         0.002,
	queryRate:     200,
	ladderProbe:   0.05,
	setupReps:     2,
	minJobs:       2,
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	cfg := &config{
		workload: workload, seed: 7, seconds: 0.5, trace: trace,
		root: "..", bin: testBin, work: t.TempDir(), sizes: tinySizes,
	}
	if err := cfg.check(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runTiny(t *testing.T, cfg *config) (string, jsonResult) {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	var last jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, text)
	}
	return text, last
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// detailMetrics are the per-workload names the report lines carry besides
// the JSON line's metrics.
var detailMetrics = map[string][]struct{ name, unit string }{
	"stream-deblank": nil,
	"gtopdb-overlap": nil,
	"serve-delta": {
		{"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"query_max_qps", "1/s"}, {"query_capacity_qps", "1/s"},
		{"delta_p50_ms", "ms"}, {"delta_p90_ms", "ms"}, {"generator_lag_p99_ms", "ms"},
	},
}

// TestEveryMetricPrinted runs every workload untraced and traced and
// checks that each metric is printed with its unit and sample count, and
// that the JSON line holds exactly BENCHMARK.json's metrics.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, workload := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", workload, trace), func(t *testing.T) {
				text, last := runTiny(t, tinyConfig(t, workload, trace))
				if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
					t.Fatalf("run not correct: %+v\n%s", last, text)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				printed := []struct{ name, unit string }{{"failed_frac", "ratio"}}
				got := map[string]string{}
				for _, m := range want {
					printed = append(printed, struct{ name, unit string }{m.Name, m.Unit})
					got[m.Name] = m.Unit
				}
				if !trace {
					printed = append(printed, detailMetrics[workload]...)
				}
				for _, m := range printed {
					re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.name) + ` = \S+ ` + regexp.QuoteMeta(m.unit) + ` \(n=\d+\)$`)
					if !re.MatchString(text) {
						t.Errorf("metric %s [%s] not printed", m.name, m.unit)
					}
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("JSON line has %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for name, m := range last.Metrics {
					if unit, ok := got[name]; !ok || unit != m.Unit {
						t.Errorf("JSON metric %s [%s] not in BENCHMARK.json as such", name, m.Unit)
					}
				}
				if !trace {
					for name, m := range last.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
				if !strings.Contains(text, "# provenance {") {
					t.Error("no provenance line")
				}
			})
		}
	}
}

// TestWrongExpectationFails plants a wrong expected output and checks that
// every job counts as failed.
func TestWrongExpectationFails(t *testing.T) {
	for _, workload := range []string{"stream-deblank", "gtopdb-overlap"} {
		t.Run(workload, func(t *testing.T) {
			cfg := tinyConfig(t, workload, false)
			cfg.expected = &expectation{Block: "source: wrong\n"}
			text, last := runTiny(t, cfg)
			if last.Correct || last.Failed != last.Attempted || last.Attempted < cfg.sizes.minJobs {
				t.Fatalf("wrong expectation not counted: %+v", last)
			}
			if !strings.Contains(text, "metric failed_frac = 1 ratio") {
				t.Errorf("failed_frac not 1:\n%s", text)
			}
		})
	}
}

// TestSameSeedSameInputs generates every workload's inputs twice from one
// seed and once from another: the same seed must give byte-identical
// files, another seed different ones.
func TestSameSeedSameInputs(t *testing.T) {
	digest := func(cfg *config, s *batchSpec) map[string][32]byte {
		dir := t.TempDir()
		if err := s.generate(cfg, dir); err != nil {
			t.Fatal(err)
		}
		return digestDir(t, dir)
	}
	for workload, s := range batchSpecs {
		cfg := tinyConfig(t, workload, false)
		a, b := digest(cfg, s), digest(cfg, s)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", workload)
		}
		cfg.seed++
		if reflect.DeepEqual(a, digest(cfg, s)) {
			t.Errorf("%s: different seeds, same inputs", workload)
		}
	}

	// serve-delta: the generated versions, the archive, the edit scripts
	// and the query cycle.
	serve := func(seed int64) (map[string][32]byte, *serveInputs) {
		cfg := tinyConfig(t, "serve-delta", false)
		cfg.seed = seed
		dir := t.TempDir()
		err := datagen(cfg, "-dataset", "bench", "-triples", fmt.Sprint(cfg.sizes.serveTriples),
			"-versions", "2", "-seed", fmt.Sprint(seed), "-out", dir)
		if err == nil {
			err = buildArchive(dir, filepath.Join(dir, "archive.snap"))
		}
		if err != nil {
			t.Fatal(err)
		}
		in, err := serveWorkload(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		return digestDir(t, dir), in
	}
	d1, in1 := serve(7)
	d2, in2 := serve(7)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(in1.scripts, in2.scripts) || !reflect.DeepEqual(in1.queries, in2.queries) {
		t.Error("serve-delta: same seed, different inputs")
	}
	if d3, _ := serve(8); reflect.DeepEqual(d1, d3) {
		t.Error("serve-delta: different seeds, same inputs")
	}
	if len(in1.scripts) != tinySizes.deltas {
		t.Errorf("%d edit scripts, want %d", len(in1.scripts), tinySizes.deltas)
	}
}

func digestDir(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][32]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(data)
	}
	if len(out) == 0 {
		t.Fatalf("%s is empty", dir)
	}
	return out
}

// TestQuantile pins the interpolation the metrics use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.9: 3.7} {
		if got := quantile(xs, q); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile modified its input")
	}
}

// TestStreamOracle checks the oracle's set arithmetic on a hand-made pair.
func TestStreamOracle(t *testing.T) {
	dir := t.TempDir()
	v1 := "<a> <p> <b> .\n<a> <l> \"x\" .\n<a> <p> <b> .\n"
	v2 := "<a> <p> <b> .\n<c> <l> \"x\" .\n"
	for name, doc := range map[string]string{"v1.nt": v1, "v2.nt": v2} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := streamOracle(filepath.Join(dir, "v1.nt"), filepath.Join(dir, "v2.nt"))
	if err != nil {
		t.Fatal(err)
	}
	want := "source: source: nodes=5 (uris=4 literals=1 blanks=0) triples=2\n" +
		"target: target: nodes=6 (uris=5 literals=1 blanks=0) triples=2\n" +
		"method=deblank theta=0.65\n" +
		"aligned entities (all): 5\n" +
		"aligned entities (URI): 4\n" +
		"aligned-edge ratio: 0.3333 (1 of 3 signatures)\n"
	if e.Block != want {
		t.Errorf("oracle block\n%s\nwant\n%s", e.Block, want)
	}
}

// TestTracerSelfTimes checks self times per job: a job's spans are found
// by its job ID, not its root span's ID, and children are subtracted.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	for j := 0; j < 2; j++ {
		root := tr.job("job")
		tr.add(root, "a", 1, 3)
		id := tr.add(root, "b", 3, 7)
		tr.add(id, "c", 4, 5)
		tr.setAttrs(id, map[string]float64{"n": 2})
		tr.close(root, nil)
	}
	want := map[string]float64{"a": 2, "b": 3, "c": 1}
	for job := 1; job <= 2; job++ {
		self := tr.selfTimes(job)
		for name, v := range want {
			if self[name] != v {
				t.Errorf("job %d: self[%s] = %v, want %v", job, name, self[name], v)
			}
		}
		if got := tr.attrSum(job, "b", "n"); got != 2 {
			t.Errorf("job %d: attrSum = %v, want 2", job, got)
		}
	}
}

// TestRecordedExpectations checks that the embedded expected outputs parse
// and are found for the seeds they were recorded for.
func TestRecordedExpectations(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		e, ok := recorded(&config{workload: "gtopdb-overlap", seed: seed, sizes: defaultSizes})
		if !ok || !strings.HasPrefix(e.Block, "source: ") || e.Pairs == 0 || e.Correct == 0 || e.Truth == 0 {
			t.Fatalf("seed %d: recorded expectation %v, %v", seed, e, ok)
		}
	}
	if _, ok := recorded(&config{workload: "gtopdb-overlap", seed: 41, sizes: defaultSizes}); ok {
		t.Error("seed 41 has a recorded expectation")
	}
}
