package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
)

// retainedBytesPerResult caps the heap a daemon keeps per finished cold
// run — job record, timeline, registry and cache entries and the Result
// itself — measured over 1,000 runs: the measured figure (1,160-1,230 B
// on linux/amd64, go1.24) plus 10%. A job that kept its own copy of the
// 512-byte Result next to the cache's measured about 1,780 B. This is the
// daemon's side of the host heap peak, so a second copy of a Result (or
// any other per-job growth) fails here before it shows in a benchmark.
const retainedBytesPerResult = 1200 * 1.10

// jobResult returns the Result pointer a job record holds.
func jobResult(t *testing.T, s *Server, id string) *uc.Result {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s not in the registry", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// TestServeJobSharesCachedResult: a finished run job holds the result
// cache's own *uc.Result, not a copy — after a cold (queued) execution and
// after a cached fast-path submission of the same run alike.
func TestServeJobSharesCachedResult(t *testing.T) {
	s := New(Config{Execute: fakeExecute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	run := smallRun(uc.DesignUnison)
	var cold, hit client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &cold)
	if j := waitJob(t, ts, cold.ID); j.State != client.StateDone {
		t.Fatalf("cold job = %+v, want done", j)
	}
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &hit)
	if hit.State != client.StateDone || hit.CacheHits != 1 {
		t.Fatalf("repeat submission = %+v, want a done cache hit", hit)
	}

	cached, ok := s.cache.get(mustKey(t, run))
	if !ok {
		t.Fatal("cold result not cached")
	}
	for _, id := range []string{cold.ID, hit.ID} {
		if got := jobResult(t, s, id); got != cached {
			t.Errorf("job %s holds Result %p, cache entry is %p", id, got, cached)
		}
	}
}

// TestServeRetentionBudget submits 1,000 never-seen runs to a daemon whose
// executor returns a real 1 GB, 16-core tpch Result, and charges the heap
// still live once they have all finished to the runs: it must stay within
// retainedBytesPerResult each.
func TestServeRetentionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 16-core simulation")
	}
	real, err := uc.Execute(uc.Run{Workload: "tpch", Design: uc.DesignUnison, Capacity: 1 << 30, Cores: 16, AccessesPerCore: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Execute: func(r uc.Run) (uc.Result, error) {
		res := real
		res.Run = r
		return res, nil
	}})
	h := s.Handler()
	const runs = 1000
	bodies := make([]string, runs)
	for i := range bodies {
		run := real.Run
		run.Seed = uint64(i) + 1
		bodies[i] = `{"run":` + mustJSON(t, run) + `}`
	}

	before := liveHeap()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submission answered %d: %s", rec.Code, rec.Body)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	bodies = nil
	per := float64(liveHeap()-before) / runs
	runtime.KeepAlive(s)

	if got := s.m.cacheMisses.Load(); got != runs {
		t.Fatalf("%d executions, want %d", got, runs)
	}
	if got := s.cache.len(); got != runs {
		t.Fatalf("cache holds %d results, want %d", got, runs)
	}
	t.Logf("daemon keeps %.0f B per finished cold run", per)
	if per > retainedBytesPerResult {
		t.Errorf("daemon keeps %.0f B per finished cold run, budget %.0f B", per, retainedBytesPerResult)
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
