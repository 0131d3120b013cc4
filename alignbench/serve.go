package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rdfalign"
)

// serve-delta keeps a two-version archive of the streamed corpus resident
// in rdfalignd. One open-loop connection sends relation queries at a fixed
// offered rate while one closed-loop writer posts edit scripts and polls
// each job until it is done; a read-only ladder of offered rates follows.

var capacityShares = []float64{0.9, 0.8, 0.7, 0.6, 0.5}

const (
	serveArchive = "bench"
	// serveTheta and the hybrid method are rdfalignd's defaults; the
	// resident archive is built under them, as appends require.
	serveTheta = 0.9
	// latencyLimit is the ladder's limit on the p99 query latency counted
	// from when each query was due. It was fixed from first measurements
	// on the reference box (see README.md): read-only probes answer in
	// ~1 ms at the median, but a garbage collection stalls the one
	// connection for up to ~20 ms at any rate, while a backlog that grows
	// for a whole probe passes 25 ms within a few percent above capacity.
	latencyLimit = 25 * time.Millisecond
	// lagLimit bounds the open-loop generator's own p99 lateness; a run
	// whose generator fell further behind its schedule is invalid.
	lagLimit = 20 * time.Millisecond
	// capacityWindow is how long, in seconds, the ladder measures the
	// back-to-back query rate; capacityShares are the ladder's steps as
	// shares of it.
	capacityWindow = 2.0
	pollEvery      = 2 * time.Millisecond
	// thinkTime is the writer's pause between a job reading done and its
	// next POST, so the first query after a head swap meets an idle
	// server instead of the next job's start.
	thinkTime = 100 * time.Millisecond
	// jobTimeout bounds the wait for one delta job to end.
	jobTimeout = 60 * time.Second
	// ladderBudget is the part of a run's seconds left for the ladder;
	// the mixed read/write phase gets the rest.
	ladderBudget = 5.0
)

// serveInputs are serve-delta's generated inputs.
type serveInputs struct {
	archive string   // archive snapshot of versions 1 and 2
	scripts []string // edit scripts in posting order: δ1, δ1⁻¹, δ2, δ2⁻¹, ...
	queries []query  // the open loop's query cycle
	inputs  []inputInfo
}

// endpoint is a running server under test: its base URL and how to stop it.
type endpoint struct {
	base string
	// stop shuts the server down and returns the peak RSS of the process
	// serving it (0 for an in-process server).
	stop func() (float64, error)
}

func runServeDelta(cfg *config) (*result, error) {
	res := &result{}
	var tr *tracer
	var ts *tracedServer
	start := func(archive string) (*endpoint, error) { return startDaemon(cfg, archive) }
	if cfg.trace {
		tr = newTracer()
		start = func(archive string) (*endpoint, error) {
			var err error
			ts, err = startTracedServer(archive, tr)
			if err != nil {
				return nil, err
			}
			return ts.endpoint, nil
		}
	}
	in, ep, setupTimes, err := setupServe(cfg, start)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			ep.stop()
		}
	}()
	noteProvenance(res, cfg, in.inputs)

	before := readRuntime()
	queries, deltas, lag := mixedPhase(cfg, res, ep.base, in)
	// The traced run hosts the server in the generator's own process, so
	// its lag is reported but only the untraced run is held to the limit.
	if p99 := quantile(lag, 0.99); p99 > lagLimit.Seconds() && !cfg.trace {
		return nil, fmt.Errorf("run invalid: the open-loop generator ran %.1f ms late at p99 (limit %v); not reported", p99*1000, lagLimit)
	}
	if len(deltas) == 0 || len(queries) == 0 {
		return nil, errors.New("no delta job or query succeeded")
	}
	res.addDetail("generator_lag_p99_ms", quantile(lag, 0.99)*1000, "ms", len(lag))
	if cfg.trace {
		res.addDetail("setup_s", median(setupTimes), "s", len(setupTimes))
		stopped = true
		if _, err := ep.stop(); err != nil {
			return nil, err
		}
		lv := layerValues{}
		ts.collect(lv)
		if err := replayDeltas(tr, res, in, lv); err != nil {
			return nil, err
		}
		rt := readRuntime().sub(before)
		lv.put("runtime.gc_cpu_s", rt.gcCPU)
		lv.put("runtime.alloc_mb", rt.allocs/mb)
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.note("spans written to %s", path)
		lv.emit(res)
		res.addDetail("trace.delta_p50_ms", pairMedian(deltas)*1000, "ms", len(deltas))
		res.addDetail("trace.query_p99_ms", quantile(queries, 0.99)*1000, "ms", len(queries))
		return res, nil
	}

	capacity, sustained := ladder(cfg, res, ep.base, in.queries)
	stopped = true
	rss, err := ep.stop()
	if err != nil {
		return nil, err
	}
	res.add("setup_s", median(setupTimes), "s", len(setupTimes))
	res.add("job_s", pairMedian(deltas), "s", len(deltas))
	res.add("job_p90_s", quantile(deltas, 0.9), "s", len(deltas))
	res.add("peak_rss_mb", rss, "MB", 1)
	res.add("request_p50_ms", median(queries)*1000, "ms", len(queries))
	res.add("request_p99_ms", quantile(queries, 0.99)*1000, "ms", len(queries))
	res.addDetail("query_p50_ms", median(queries)*1000, "ms", len(queries))
	res.addDetail("query_p99_ms", quantile(queries, 0.99)*1000, "ms", len(queries))
	res.addDetail("query_max_qps", sustained, "1/s", 1)
	res.addDetail("query_capacity_qps", capacity, "1/s", 1)
	res.addDetail("delta_p50_ms", pairMedian(deltas)*1000, "ms", len(deltas))
	res.addDetail("delta_p90_ms", quantile(deltas, 0.9)*1000, "ms", len(deltas))
	return res, nil
}

// pairMedian is the median delta job time over script/inverse pairs: the
// median of each consecutive pair's mean. A script's job and its
// inverse's take different times (on the streamed corpus the script that
// inserts triples costs about 1.5× the one that deletes them), so the
// plain median of all jobs falls in the gap between the two clusters and
// jumps between them from run to run.
func pairMedian(times []float64) float64 {
	var pairs []float64
	for i := 0; i+1 < len(times); i += 2 {
		pairs = append(pairs, (times[i]+times[i+1])/2)
	}
	if len(pairs) == 0 {
		return median(times)
	}
	return median(pairs)
}

// setupServe generates the inputs and starts the server setupReps times
// (stopping the previous server first, outside the timing) and returns
// the inputs, the last server and the set-up times.
func setupServe(cfg *config, start func(string) (*endpoint, error)) (*serveInputs, *endpoint, []float64, error) {
	dir := filepath.Join(cfg.work, cfg.workload)
	archive := filepath.Join(dir, "archive.snap")
	var ep *endpoint
	var times []float64
	for rep := 0; rep < cfg.sizes.setupReps; rep++ {
		if ep != nil {
			if _, err := ep.stop(); err != nil {
				return nil, nil, nil, err
			}
			ep = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		err := datagen(cfg, "-dataset", "bench", "-triples", strconv.Itoa(cfg.sizes.serveTriples),
			"-versions", "2", "-seed", strconv.FormatInt(cfg.seed, 10), "-out", dir)
		if err == nil {
			err = buildArchive(dir, archive)
		}
		if err == nil {
			ep, err = start(archive)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	in, err := serveWorkload(cfg, dir)
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		ep.stop()
		return nil, nil, nil, err
	}
	in.archive = archive
	// Warm the lazy per-head indexes: the first query of each kind is
	// set-up, not load.
	c := newClient()
	for _, q := range in.queries[:3] {
		if status, body, err := get(c, ep.base+q.path()); err != nil || status != http.StatusOK {
			ep.stop()
			return nil, nil, nil, fmt.Errorf("warm-up query %s: status %d: %v %s", q.path(), status, err, body)
		}
	}
	return in, ep, times, nil
}

// serveAligner is rdfalignd's default session: hybrid, θ 0.9, all cores.
func serveAligner(progress rdfalign.ProgressFunc) (*rdfalign.Aligner, error) {
	opts := []rdfalign.Option{rdfalign.WithMethod(rdfalign.Hybrid), rdfalign.WithTheta(serveTheta), rdfalign.WithParallelism(0)}
	if progress != nil {
		opts = append(opts, rdfalign.WithProgress(progress))
	}
	return rdfalign.NewAligner(opts...)
}

// buildArchive archives versions 1 and 2 and writes the archive snapshot
// the server loads.
func buildArchive(dir, path string) error {
	var graphs []*rdfalign.Graph
	for _, name := range []string{"v1.nt", "v2.nt"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		g, err := rdfalign.ParseNTriples(f, name, rdfalign.WithParseWorkers(-1))
		f.Close()
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}
	al, err := serveAligner(nil)
	if err != nil {
		return err
	}
	arch, err := al.BuildArchive(context.Background(), graphs)
	if err != nil {
		return err
	}
	return rdfalign.WriteArchiveSnapshotFile(path, arch)
}

const (
	subjectPred = "<http://purl.org/dc/terms/subject>"
	// sampledURIs is the number of anchor URIs the queries cycle over.
	sampledURIs = 512
)

// serveWorkload derives the edit scripts and the query cycle from the
// generated versions. Each script deletes dct:subject links of articles
// that keep another one and inserts new links between existing articles
// and categories, so no node appears or disappears; each is followed by
// its inverse, so the graph does not drift. The queries sample articles
// present in both versions; every one stays in every later version.
func serveWorkload(cfg *config, dir string) (*serveInputs, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5e17e))
	v1Subjects := map[string]bool{}
	var inputs []inputInfo
	type article struct {
		uri   string
		links []string // subject triple lines
	}
	var articles []*article
	byURI := map[string]*article{}
	var categories []string
	seenCat := map[string]bool{}
	lines := map[string]bool{}
	for _, name := range []string{"v1.nt", "v2.nt"} {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, _ := f.Stat()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		n := 0
		for sc.Scan() {
			n++
			line := sc.Text()
			s, rest, _ := strings.Cut(line, " ")
			if name == "v1.nt" {
				v1Subjects[s] = true
				continue
			}
			lines[line] = true
			p, o, _ := strings.Cut(rest, " ")
			if p != subjectPred {
				continue
			}
			o = strings.TrimSuffix(o, " .")
			a := byURI[s]
			if a == nil {
				a = &article{uri: s}
				byURI[s] = a
				articles = append(articles, a)
			}
			a.links = append(a.links, line)
			if !seenCat[o] {
				seenCat[o] = true
				categories = append(categories, o)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		inputs = append(inputs, inputInfo{Name: name, Triples: n, Bytes: st.Size()})
	}
	if len(articles) == 0 || len(categories) == 0 {
		return nil, errors.New("serve-delta: version 2 has no dct:subject links")
	}

	k := max(1, int(cfg.sizes.churn*float64(inputs[1].Triples)/2))
	var scripts []string
	for d := 0; d < cfg.sizes.deltas/2; d++ {
		var dels, ins []string
		picked := map[string]bool{}
		for tries := 0; len(dels) < k && tries < 100*k; tries++ {
			a := articles[rng.IntN(len(articles))]
			if len(a.links) < 2 || picked[a.uri] {
				continue
			}
			picked[a.uri] = true
			dels = append(dels, a.links[rng.IntN(len(a.links))])
		}
		added := map[string]bool{}
		for tries := 0; len(ins) < k && tries < 100*k; tries++ {
			a := articles[rng.IntN(len(articles))]
			line := a.uri + " " + subjectPred + " " + categories[rng.IntN(len(categories))] + " ."
			if lines[line] || added[line] {
				continue
			}
			added[line] = true
			ins = append(ins, line)
		}
		scripts = append(scripts, editScript(dels, ins), editScript(ins, dels))
	}

	var common []string
	for _, a := range articles {
		if v1Subjects[a.uri] {
			common = append(common, strings.Trim(a.uri, "<>"))
		}
	}
	if len(common) == 0 {
		return nil, errors.New("serve-delta: versions share no article")
	}
	kinds := []string{"matches", "aligned", "distance"}
	var queries []query
	for i := 0; i < sampledURIs; i++ {
		queries = append(queries, query{kind: kinds[i%len(kinds)], uri: common[rng.IntN(len(common))]})
	}
	return &serveInputs{scripts: scripts, queries: queries, inputs: inputs}, nil
}

// editScript renders deletions then insertions in the "- / +" grammar.
func editScript(dels, ins []string) string {
	var b strings.Builder
	for _, l := range dels {
		b.WriteString("- " + l + "\n")
	}
	for _, l := range ins {
		b.WriteString("+ " + l + "\n")
	}
	return b.String()
}

// query is one relation query about an anchor URI that is present, and
// aligned to itself, in every version the run publishes.
type query struct {
	kind string // matches, aligned or distance
	uri  string
}

func (q query) path() string {
	u := url.QueryEscape(q.uri)
	if q.kind == "matches" {
		return "/archives/" + serveArchive + "/matches?uri=" + u
	}
	return "/archives/" + serveArchive + "/" + q.kind + "?source=" + u + "&target=" + u
}

// check verifies a query's answer: the URI is found and matches itself.
func (q query) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.path(), status, body)
	}
	var r struct {
		Found       bool    `json:"found"`
		SourceFound bool    `json:"source_found"`
		TargetFound bool    `json:"target_found"`
		Aligned     bool    `json:"aligned"`
		Distance    float64 `json:"distance"`
		Matches     []struct {
			Kind, Value string
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %v", q.path(), err)
	}
	ok := false
	switch q.kind {
	case "matches":
		for _, m := range r.Matches {
			ok = ok || (r.Found && m.Kind == "uri" && m.Value == q.uri)
		}
	case "aligned":
		ok = r.SourceFound && r.TargetFound && r.Aligned
	case "distance":
		ok = r.SourceFound && r.TargetFound && r.Distance == 0
	}
	if !ok {
		return fmt.Errorf("%s: wrong answer %s", q.path(), body)
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func get(c *http.Client, u string) (int, []byte, error) {
	return do(c, http.MethodGet, u, "")
}

func do(c *http.Client, method, u, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// mixedPhase runs the open-loop queries and the closed-loop writer side
// by side. The queries run for the run's seconds less the ladder's
// budget, and on until the writer has posted every script. It returns
// the successful queries' latencies from when each was due, the delta
// jobs' POST-to-done times, and the generator's lateness per query, all
// in seconds; failures are counted in res.
func mixedPhase(cfg *config, res *result, base string, in *serveInputs) (queries, deltas, lag []float64) {
	window := time.Duration(math.Max(cfg.seconds-ladderBudget, 1) * float64(time.Second))
	var writerDone atomic.Bool
	type writerResult struct {
		times    []float64
		failures []string
		ops      int
	}
	wres := make(chan writerResult, 1)
	go func() {
		var wr writerResult
		wr.times, wr.failures, wr.ops = runWriter(base, in.scripts)
		writerDone.Store(true)
		wres <- wr
	}()
	samples := openLoop(newClient(), base, cfg.sizes.queryRate, in.queries, func(due, _ time.Duration) bool {
		return due >= window && writerDone.Load()
	})
	wr := <-wres
	res.attempted += wr.ops
	for _, f := range wr.failures {
		res.fail("%s", f)
	}
	for _, s := range samples {
		res.attempted++
		lag = append(lag, s.lag)
		if s.err != nil {
			res.fail("query: %v", s.err)
			continue
		}
		queries = append(queries, s.latency)
	}
	return queries, wr.times, lag
}

// qsample is one open-loop query: latency from due, the generator's own
// lateness (send time minus the later of due time and the previous
// answer), and the error if the answer was wrong.
type qsample struct {
	latency, lag float64
	err          error
}

// openLoop sends queries on one connection at the offered rate, the i-th
// due i/rate after the start, until stop(due, elapsed) holds for the next.
func openLoop(c *http.Client, base string, rate float64, qs []query, stop func(due, elapsed time.Duration) bool) []qsample {
	var out []qsample
	start := time.Now()
	var prevDone time.Duration
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if stop(due, time.Since(start)) {
			return out
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		send := time.Since(start)
		q := qs[i%len(qs)]
		status, body, err := get(c, base+q.path())
		done := time.Since(start)
		if err == nil {
			err = q.check(status, body)
		}
		out = append(out, qsample{latency: (done - due).Seconds(), lag: (send - max(due, prevDone)).Seconds(), err: err})
		prevDone = done
	}
}

// runWriter posts every script in turn and polls its job until it ends.
// It returns the done jobs' POST-to-done times, failures, and the
// operations attempted (one per script, plus the final version check).
func runWriter(base string, scripts []string) ([]float64, []string, int) {
	c := newClient()
	var times []float64
	var failures []string
	for i, s := range scripts {
		if i > 0 {
			time.Sleep(thinkTime)
		}
		t0 := time.Now()
		state, err := postDelta(c, base, s)
		if err != nil {
			failures = append(failures, fmt.Sprintf("delta %d: %v", i+1, err))
			continue
		}
		if state != "done" {
			failures = append(failures, fmt.Sprintf("delta %d: job ended %s", i+1, state))
			continue
		}
		times = append(times, time.Since(t0).Seconds())
	}
	status, body, err := get(c, base+"/archives/"+serveArchive)
	var summary struct {
		Versions int `json:"versions"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &summary)
	}
	switch want := 2 + len(scripts); {
	case err != nil || status != http.StatusOK:
		failures = append(failures, fmt.Sprintf("archive summary: status %d: %v", status, err))
	case summary.Versions != want:
		failures = append(failures, fmt.Sprintf("final head has %d versions, want %d", summary.Versions, want))
	}
	return times, failures, len(scripts) + 1
}

// postDelta posts one edit script and polls its job to a terminal state.
func postDelta(c *http.Client, base, script string) (string, error) {
	status, body, err := do(c, http.MethodPost, base+"/archives/"+serveArchive+"/deltas", script)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("POST status %d: %s", status, body)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	deadline := time.Now().Add(jobTimeout)
	for {
		if err := json.Unmarshal(body, &job); err != nil {
			return "", err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s still %s after %v", job.ID, job.State, jobTimeout)
		}
		switch job.State {
		case "done":
			return job.State, nil
		case "failed", "canceled", "timeout":
			return fmt.Sprintf("%s (status %d: %s)", job.State, status, job.Error), nil
		}
		time.Sleep(pollEvery)
		if status, body, err = get(c, base+"/jobs/"+job.ID); err != nil {
			return "", err
		}
	}
}

// ladder measures the query side's capacity on the final head with no
// writer running. First one connection sends queries back to back for
// capacityWindow: the rate it completes is the capacity. Then a short
// ladder offers capacityShares of it, highest first; the highest rate
// whose p99 latency from due stays within latencyLimit, with the median
// of the probe's last tenth within it too (no growing backlog), is the
// sustainable rate. A failing step is probed once more before it counts
// as failed, so one stall cannot end the ladder early. It returns the
// capacity and the rate the highest passing step achieved (0 if none).
func ladder(cfg *config, res *result, base string, qs []query) (capacity, sustained float64) {
	c := newClient()
	count := func(samples []qsample) bool {
		for _, s := range samples {
			res.attempted++
			if s.err != nil {
				res.fail("ladder query: %v", s.err)
				return false
			}
		}
		return true
	}
	window := time.Duration(capacityWindow * float64(time.Second))
	start := time.Now()
	samples := openLoop(c, base, math.Inf(1), qs, func(_, elapsed time.Duration) bool { return elapsed >= window })
	capacity = float64(len(samples)) / time.Since(start).Seconds()
	if !count(samples) {
		return capacity, 0
	}
	res.note("capacity: %d queries back to back on one connection, %.0f/s", len(samples), capacity)

	probe := time.Duration(cfg.sizes.ladderProbe * float64(time.Second))
	limit := latencyLimit.Seconds()
	probeOnce := func(rate float64) (bool, float64) {
		samples := openLoop(c, base, rate, qs, func(due, elapsed time.Duration) bool {
			return due >= probe || elapsed >= 3*probe
		})
		if !count(samples) {
			return false, 0
		}
		lat := make([]float64, len(samples))
		for i, s := range samples {
			lat[i] = s.latency
		}
		tail := median(lat[len(lat)-max(1, len(lat)/10):])
		pass := quantile(lat, 0.99) <= limit && tail <= limit
		achieved := float64(len(samples)) / (probe.Seconds() + samples[len(samples)-1].latency)
		res.note("ladder: offered %.0f/s achieved %.0f/s p99 %.3f ms last tenth %.3f ms pass=%v",
			rate, achieved, quantile(lat, 0.99)*1000, tail*1000, pass)
		return pass, achieved
	}
	for _, share := range capacityShares {
		for try := 0; try < 2; try++ {
			if ok, achieved := probeOnce(share * capacity); ok {
				return capacity, achieved
			}
		}
	}
	return capacity, 0
}

// startDaemon starts rdfalignd serving the archive on a free loopback
// port and waits until it answers.
func startDaemon(cfg *config, archive string) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(filepath.Join(cfg.bin, "rdfalignd"), "-addr", addr, "-archive", serveArchive+"="+archive)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := sync.OnceValues(func() (float64, error) {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-exited
			return 0, fmt.Errorf("rdfalignd did not stop on SIGTERM: %s", stderr.Bytes())
		}
		var rss float64
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) * 1024 / mb
		}
		return rss, nil
	})
	base := "http://" + addr
	c := newClient()
	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case err := <-exited:
			return nil, fmt.Errorf("rdfalignd exited during start-up: %v: %s", err, stderr.Bytes())
		default:
		}
		if status, _, err := get(c, base+"/healthz"); err == nil && status == http.StatusOK {
			return &endpoint{base: base, stop: stop}, nil
		}
		if time.Now().After(deadline) {
			stop()
			return nil, errors.New("rdfalignd did not answer /healthz within 120 s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
