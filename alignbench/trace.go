package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one job share Job; Parent is the enclosing span's ID
// (0 for a job's root span).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // since the tracer started
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them as JSON at the end of a
// run. It is safe for concurrent use (the traced server records spans
// from its handler goroutines).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	jobs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// job opens the root span of a new job and returns its ID.
func (t *tracer) job(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.open(name, 0, t.jobs, t.now())
}

// child opens a span under parent, in parent's job.
func (t *tracer) child(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, parent, t.spans[parent-1].Job, t.now())
}

func (t *tracer) open(name string, parent, job int, start float64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: start, End: start})
	return len(t.spans)
}

// close ends span id, attaching attrs (may be nil).
func (t *tracer) close(id int, attrs map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	s.Attrs = attrs
}

// add records a span whose bounds were measured elsewhere: under parent,
// or as the root of a new job when parent is 0.
func (t *tracer) add(parent int, name string, start, end float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	job := 0
	if parent == 0 {
		t.jobs++
		job = t.jobs
	} else {
		job = t.spans[parent-1].Job
	}
	id := t.open(name, parent, job, start)
	t.spans[id-1].End = end
	return id
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// setAttrs replaces span id's attributes.
func (t *tracer) setAttrs(id int, attrs map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Attrs = attrs
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for one job, each span name's self time: the span's
// duration minus the part of it its child spans cover (children of one
// span never overlap here: the calls they time are sequential).
func (t *tracer) selfTimes(job int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == job && s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == job {
			self[s.Name] += s.dur() - childSum[s.ID]
		}
	}
	return self
}

// sumNamed sums the durations of one job's spans named name.
func (t *tracer) sumNamed(job int, name string) (total float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.Job == job && s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// attrSum sums one attribute over a job's spans named name.
func (t *tracer) attrSum(job int, name, attr string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Job == job && s.Name == name {
			total += s.Attrs[attr]
		}
	}
	return total
}

// sortedNames returns m's keys in descending value order.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// runtimeCounters samples the Go runtime's cumulative GC CPU time and
// heap allocation of this process.
type runtimeCounters struct {
	gcCPU  float64 // seconds
	allocs float64 // bytes
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocs = float64(s[1].Value.Uint64())
	}
	return c
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCPU: c.gcCPU - o.gcCPU, allocs: c.allocs - o.allocs}
}

const mb = 1 << 20

// perLayerNames lists every per-layer metric with its unit, in print
// order. A traced run prints all of them on every workload; a layer the
// workload does not pass through reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"rdf.parse_s", "s"},
	{"rdf.parse_alloc_mb", "MB"},
	{"rdf.union_s", "s"},
	{"snapshot.read_s", "s"},
	{"snapshot.read_alloc_mb", "MB"},
	{"core.base_partition_s", "s"},
	{"core.base_labels", "count"},
	{"core.refine_s", "s"},
	{"core.refine_rounds", "count"},
	{"core.refine_dirty", "count"},
	{"core.propagate_s", "s"},
	{"core.propagate_rounds", "count"},
	{"similarity.overlap_s", "s"},
	{"similarity.overlap_rounds", "count"},
	{"report.edgestats_s", "s"},
	{"report.entitycount_s", "s"},
	{"report.alloc_mb", "MB"},
	{"delta.parse_ms", "ms"},
	{"session.apply_delta_ms", "ms"},
	{"archive.clone_ms", "ms"},
	{"archive.append_ms", "ms"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_p99", "ms"},
	{"server.first_query_after_swap_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
}

// layerValues collects per-layer observations (one per traced job, or per
// operation) and prints each metric as the median of its observations.
type layerValues map[string][]float64

func (lv layerValues) put(name string, v float64) { lv[name] = append(lv[name], v) }

// emit adds every per-layer metric to r, as the median of its
// observations (0 with no observation).
func (lv layerValues) emit(r *result) {
	for _, m := range perLayerNames {
		r.add(m.name, median(lv[m.name]), m.unit, len(lv[m.name]))
	}
}
