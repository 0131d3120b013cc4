// Command alignbench is the end-to-end benchmark of the rdfalign programs.
// It generates its inputs from a seed, runs one named workload against
// the rdfalign, rdfalignd and datagen binaries built from the same
// checkout, checks every output, and prints the workload's metrics:
//
//	alignbench -workload stream-deblank -seed 1 -seconds 15 -trace 0
//
// Human-readable report lines (provenance, every metric with its unit and
// sample count) come first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1). The
// traced run records spans around every layer call made from this
// benchmark's own code and writes them as JSON when it ends. See
// README.md for the workloads and the metric definitions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "seconds one run measures for")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the rdfalign, rdfalignd and datagen binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for generated inputs and span files")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout the programs were built from (for provenance)")
	record := flag.Bool("record", false, "print the expected output of a batch workload for -seed as one JSON line (for expected.json) and exit")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	cfg.trace = *trace == 1
	cfg.sizes = defaultSizes
	if err := cfg.check(); err != nil {
		fatal(err)
	}
	if *record {
		if err := recordExpected(&cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(&cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alignbench:", err)
	os.Exit(1)
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root, for provenance
	bin      string // directory of the program binaries
	work     string // scratch directory for inputs and spans
	sizes    sizes

	// expected overrides the recorded expected outputs (tests plant a
	// wrong one to check that it is counted as a failure).
	expected *expectation
}

// sizes fixes the input sizes and load of every workload. The benchmark
// runs defaultSizes; the benchmark's own tests shrink them.
type sizes struct {
	streamTriples int     // stream-deblank: triples in version 1
	gtopdbScale   float64 // gtopdb-overlap: generator scale (1.0 = the paper's)
	serveTriples  int     // serve-delta: triples in version 1 of the resident archive
	deltas        int     // serve-delta: edit scripts posted per run (half of them inverses)
	churn         float64 // serve-delta: triples edited per script, as a share of the version
	queryRate     float64 // serve-delta: nominal offered query rate, 1/s
	ladderProbe   float64 // serve-delta: seconds one rate probe of the ladder lasts
	setupReps     int     // set-ups per run; setup_s is their median
	minJobs       int     // batch workloads: jobs per run at least, however short -seconds is
}

var defaultSizes = sizes{
	streamTriples: 1_000_000,
	gtopdbScale:   1.0,
	serveTriples:  200_000,
	deltas:        32,
	churn:         0.001,
	queryRate:     400,
	ladderProbe:   0.75,
	setupReps:     3,
	minJobs:       3,
}

func (c *config) check() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds %v outside (0, ∞)", c.seconds)
	}
	if c.bin == "" || c.work == "" {
		return errors.New("-bin and -work are required")
	}
	for _, name := range []string{"rdfalign", "rdfalignd", "datagen"} {
		if _, err := os.Stat(filepath.Join(c.bin, name)); err != nil {
			return fmt.Errorf("program binary missing: %w", err)
		}
	}
	return os.MkdirAll(c.work, 0o755)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*result, error){
	"stream-deblank": runStreamDeblank,
	"gtopdb-overlap": runGtoPdbOverlap,
	"serve-delta":    runServeDelta,
}

func workloadNames() []string { return []string{"stream-deblank", "gtopdb-overlap", "serve-delta"} }

// runWorkload runs the configured workload.
func runWorkload(cfg *config) (*result, error) {
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}
