package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one printed measurement.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int // observations the value summarises
}

// result is what one run prints: report lines, then the JSON line.
type result struct {
	attempted, failed int
	// headline holds the metrics of the final JSON line: the end-to-end
	// metrics of BENCHMARK.json on an untraced run, the per-layer ones on
	// a traced run.
	headline []metric
	// detail holds further metrics printed as report lines only: the
	// per-workload names of the end-to-end metrics (query_p99_ms,
	// delta_p50_ms, ...), failed_frac, generator lag, tracing overhead.
	detail []metric
	notes  []string
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.headline = append(r.headline, metric{name, value, unit, samples})
}

func (r *result) addDetail(name string, value float64, unit string, samples int) {
	r.detail = append(r.detail, metric{name, value, unit, samples})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.note("FAILED: "+format, args...)
}

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the report lines and, last, the JSON result line.
func (r *result) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	fmt.Fprintf(bw, "metric failed_frac = %g ratio (n=%d)\n", r.failedFrac(), r.attempted)
	for _, m := range append(append([]metric(nil), r.headline...), r.detail...) {
		fmt.Fprintf(bw, "metric %s = %g %s (n=%d)\n", m.name, m.value, m.unit, m.samples)
	}
	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.headline)),
	}
	for _, m := range r.headline {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// inputInfo describes one generated input version for provenance.
type inputInfo struct {
	Name    string `json:"name"`
	Triples int    `json:"triples"`
	Bytes   int64  `json:"bytes"`
}

// provenance records where and on what a run was measured.
type provenance struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpu_model"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	SourceHash string      `json:"source_sha256"`
	Inputs     []inputInfo `json:"inputs"`
}

// noteProvenance adds the provenance line for the run to r.
func noteProvenance(r *result, cfg *config, inputs []inputInfo) {
	root := cfg.root
	p := provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		Inputs:     inputs,
	}
	b, _ := json.Marshal(p) // plain struct of strings and numbers
	r.note("provenance %s", b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "none" outside a git work tree.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the program's Go sources (every .go file and go.mod
// outside the build directory and this benchmark), so runs of checkouts
// without git history can still be told apart.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".bench_build" || rel == "alignbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
