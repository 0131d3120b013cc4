package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"rdfalign"
	"rdfalign/internal/core"
	"rdfalign/internal/server"
)

// tracedServer serves the archive in-process, configured as the benchmark
// configures rdfalignd, behind a handler that times every relation query
// inside ServeHTTP and notes the first query after each head swap.
type tracedServer struct {
	*endpoint
	srv *server.Server
	tr  *tracer

	mu             sync.Mutex
	lastHead       any // the head the previous query saw
	handler        []float64
	firstAfterSwap []float64
}

func startTracedServer(archive string, tr *tracer) (*tracedServer, error) {
	al, err := serveAligner(nil)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Aligner: al})
	if err != nil {
		return nil, err
	}
	if err := srv.LoadSnapshotFile(context.Background(), serveArchive, archive); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ts := &tracedServer{srv: srv, tr: tr}
	hs := &http.Server{Handler: ts}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ts.endpoint = &endpoint{
		base: "http://" + ln.Addr().String(),
		stop: sync.OnceValues(func() (float64, error) {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := hs.Shutdown(ctx)
			if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
				err = serr
			}
			return 0, err
		}),
	}
	return ts, nil
}

func isRelationQuery(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	for _, kind := range []string{"/matches", "/aligned", "/distance"} {
		if strings.HasSuffix(r.URL.Path, kind) {
			return true
		}
	}
	return false
}

func (ts *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !isRelationQuery(r) {
		ts.srv.ServeHTTP(w, r)
		return
	}
	swapped := false
	if h, err := ts.srv.Registry().Head(serveArchive); err == nil {
		ts.mu.Lock()
		swapped = ts.lastHead != nil && any(h) != ts.lastHead
		ts.lastHead = h
		ts.mu.Unlock()
	}
	start := ts.tr.now()
	ts.srv.ServeHTTP(w, r)
	end := ts.tr.now()
	ts.tr.add(0, "server.handler", start, end)
	ts.mu.Lock()
	ts.handler = append(ts.handler, end-start)
	if swapped {
		ts.firstAfterSwap = append(ts.firstAfterSwap, end-start)
	}
	ts.mu.Unlock()
}

// collect adds the server-layer metrics.
func (ts *tracedServer) collect(lv layerValues) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	lv.put("server.handler_ms_p50", quantile(ts.handler, 0.5)*1000)
	lv.put("server.handler_ms_p99", quantile(ts.handler, 0.99)*1000)
	for _, d := range ts.firstAfterSwap {
		lv.put("server.first_query_after_swap_ms", d*1000)
	}
}

// replayDeltas applies the run's edit scripts through the library the way
// the server's delta job does — parse the script, ApplyDelta on the live
// session, Clone the archive, AppendVersion the new target — with a span
// around each call, and checks that every step succeeds and the archive
// ends with 2 + scripts versions.
func replayDeltas(tr *tracer, res *result, in *serveInputs, lv layerValues) error {
	var events []event
	al, err := serveAligner(func(p rdfalign.Progress) { events = append(events, event{p, tr.now()}) })
	if err != nil {
		return err
	}
	arch, err := rdfalign.ReadArchiveSnapshotFile(in.archive)
	if err != nil {
		return err
	}
	if !arch.CanAppend() {
		if err := arch.RebuildTail(); err != nil {
			return err
		}
	}
	anchor, err := arch.Snapshot(arch.Versions() - 2)
	if err != nil {
		return err
	}
	ctx := context.Background()
	a, err := al.Align(ctx, anchor, arch.LatestGraph())
	if err != nil {
		return err
	}
	for i, text := range in.scripts {
		res.attempted++
		root := tr.job("delta.replay")
		timed := func(name string, f func() error) error {
			id := tr.child(root, name)
			err := f()
			tr.close(id, nil)
			lv.put(name+"_ms", tr.get(id).dur()*1000)
			return err
		}
		var script *rdfalign.EditScript
		err := timed("delta.parse", func() (err error) {
			script, err = rdfalign.ParseEditScriptString(text)
			return err
		})
		var next *rdfalign.Alignment
		if err == nil {
			from := len(events)
			err = timed("session.apply_delta", func() (err error) {
				next, err = a.ApplyDelta(ctx, script)
				return err
			})
			refine := refineRounds(events[from:])
			lv.put("core.refine_s", refine.seconds)
			lv.put("core.refine_rounds", refine.rounds)
			lv.put("core.refine_dirty", refine.dirty)
		}
		arch2 := arch
		if err == nil {
			timed("archive.clone", func() error { arch2 = arch.Clone(); return nil })
			err = timed("archive.append", func() error {
				_, err := al.AppendVersion(ctx, arch2, next.Target(), nil)
				return err
			})
		}
		tr.close(root, nil)
		if err != nil {
			res.fail("replayed delta %d: %v", i+1, err)
			continue
		}
		a, arch = next, arch2
	}
	res.attempted++
	if want := 2 + len(in.scripts); arch.Versions() != want {
		res.fail("replayed archive has %d versions, want %d", arch.Versions(), want)
	}
	return nil
}

// refineStats summarises the refinement rounds one ApplyDelta reported.
type refineStats struct{ seconds, rounds, dirty float64 }

// refineRounds sums the StageRefine rounds among events. Only the time
// between two consecutive rounds of one fixpoint is attributable to
// refinement from outside; the first round of each fixpoint also carries
// the graph edit before it and is left out of seconds.
func refineRounds(events []event) refineStats {
	var st refineStats
	for i, e := range events {
		if e.Stage != core.StageRefine {
			continue
		}
		st.rounds++
		st.dirty += float64(e.Dirty)
		if i > 0 && e.Round > 1 && events[i-1].Stage == core.StageRefine {
			st.seconds += e.at - events[i-1].at
		}
	}
	return st
}
