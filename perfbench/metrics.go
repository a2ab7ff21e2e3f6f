package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	uc "unisoncache"
)

// phases holds what one run's phases recorded.
type phases struct {
	sweep      sweepStats
	sweepTrace sweepTrace
	cold       coldStats
	mixed      mixedStats
}

// endToEndMetrics are the figures a user of the simulator or the service
// sees, measured with tracing off.
func (b *bench) endToEndMetrics(p *phases, setupS, heapMB float64) (map[string]metric, error) {
	var sweepTotal float64
	for _, w := range p.sweep.walls {
		sweepTotal += w
	}
	m := map[string]metric{
		"setup_s":          {setupS, "s"},
		"heap_peak_mb":     {heapMB, "MB"},
		"sim_events_per_s": {float64(p.sweep.events) / sweepTotal, "1/s"},
		"sweep_s":          {median(p.sweep.walls), "s"},
		"unison_speedup":   {p.sweep.speedup, "x"},
	}
	coldLat := p.cold.latency
	m["cold_runs_per_s"] = metric{float64(len(coldLat)) / p.cold.wall.Seconds(), "1/s"}
	for _, q := range []struct {
		name  string
		lat   []float64
		p     float64
		scale float64
		unit  string
	}{
		{"cold_p50_ms", coldLat, 0.5, 1e3, "ms"},
		{"cold_p90_ms", coldLat, 0.9, 1e3, "ms"},
	} {
		v, err := percentile(q.lat, q.p)
		if err != nil {
			return nil, err
		}
		m[q.name] = metric{v * q.scale, q.unit}
	}
	return m, nil
}

// layerMetrics are the per-layer figures of the traced pass.
func (b *bench) layerMetrics(p *phases) (map[string]metric, error) {
	st := p.sweepTrace
	tot := sumLayers(st.runs)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	ev := float64(tot.Events)
	put("trace.ns_per_event", ratio(float64(tot.TraceNS), ev), "ns")
	put("sim.self_ns_per_event", ratio(float64(tot.SimSelfNS), ev), "ns")
	put("unisoncache.setup_ms", ratio(float64(tot.SetupNS), float64(tot.Runs))/1e6, "ms")
	put("runner.busy_frac", ratio(float64(tot.ExecNS), float64(st.jobs)*float64(st.traced)), "frac")
	put("runner.memo_hits", float64(2*len(st.results)-tot.Runs), "count")
	put("bench.trace_overhead", ratio(float64(st.traced-st.untraced), float64(st.untraced)), "frac")
	put("bench.trace_base_s", st.untraced.Seconds(), "s")
	put("bench.unexplained_frac", ratio(float64(tot.UnexplNS), float64(tot.ExecNS)), "frac")
	put("bench.busy_base_s", float64(tot.ExecNS)/1e9, "s")

	var l1NS, l1N, l2NS, l2N int64
	for _, cr := range st.caches {
		l1NS, l1N, l2NS, l2N = l1NS+cr.L1NS, l1N+cr.L1Calls, l2NS+cr.L2NS, l2N+cr.L2Calls
	}
	put("cache.l1_ns_per_access", ratio(float64(l1NS), float64(l1N)), "ns")
	put("cache.l2_ns_per_access", ratio(float64(l2NS), float64(l2N)), "ns")

	// Simulated statistics over every distinct run of the sweep.
	var l1Sum, l2Hits, l2Acc float64
	var stackedHits, stackedReq, offHits, offReq float64
	byDesign := map[uc.DesignKind][]*runSpans{}
	for _, r := range st.runs {
		res := r.Results
		l1Sum += res.L1HitRate
		l2Hits += float64(res.L2.Hits)
		l2Acc += float64(res.L2.Accesses)
		stackedHits += float64(res.Stacked.RowHits)
		stackedReq += float64(res.Stacked.Reads + res.Stacked.Writes)
		offHits += float64(res.Offchip.RowHits)
		offReq += float64(res.Offchip.Reads + res.Offchip.Writes)
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	put("sim.l1_hit_ratio", ratio(l1Sum, float64(len(st.runs))), "ratio")
	put("sim.l2_hit_ratio", ratio(l2Hits, l2Acc), "ratio")
	put("dram.stacked.row_hit_ratio", ratio(stackedHits, stackedReq), "ratio")
	put("dram.offchip.row_hit_ratio", ratio(offHits, offReq), "ratio")
	put("dram.stacked.requests", stackedReq, "count")
	put("dram.offchip.requests", offReq, "count")

	for _, d := range append([]uc.DesignKind{uc.DesignNone}, sweepDesigns...) {
		prefix := "dramcache." + string(d) + "."
		dt := sumLayers(byDesign[d])
		put(prefix+"ns_per_access", ratio(float64(dt.DesignNS), float64(dt.DesignReqs)), "ns")
		if d == uc.DesignNone {
			continue
		}
		var reads, readHits, offBytes, instr, wpNum, wpDen float64
		for _, r := range byDesign[d] {
			s := r.Results.Design
			reads += float64(s.Reads)
			readHits += float64(s.ReadHits)
			offBytes += float64(s.OffchipReadBytes + s.OffchipWriteBytes)
			instr += float64(r.Results.Instructions)
			if s.WP != nil {
				wpNum += float64(s.WP.Num)
				wpDen += float64(s.WP.Den)
			}
		}
		put(prefix+"accesses_per_kevent", ratio(float64(dt.DesignReqs)*1000, float64(dt.Events)), "1/kevent")
		put(prefix+"read_hit_ratio", ratio(readHits, reads), "ratio")
		put(prefix+"offchip_bytes_per_ki", ratio(offBytes*1000, instr), "B/ki")
		if d == uc.DesignUnison {
			put(prefix+"way_pred_accuracy", ratio(wpNum, wpDen), "ratio")
		}
	}

	deltas := p.cold.deltas
	queueWait := ratio(deltas.queueWaitS, deltas.queueWaitN)
	execute := ratio(deltas.hookS, deltas.hookN)
	put("serve.queue_wait_ms", queueWait*1e3, "ms")
	put("serve.execute_ms", execute*1e3, "ms")
	put("serve.overhead_ms", (mean(p.cold.latency)-execute-queueWait)*1e3, "ms")
	put("store.write_us", ratio(deltas.storeWriteS, deltas.storeWriteN)*1e6, "us")
	put("client.submit_us", mean(p.cold.submit)*1e6, "us")
	put("client.wait_ms", mean(p.cold.wait)*1e3, "ms")

	md := p.mixed.deltas
	put("serve.hit_handler_us", ratio(md.runsHandlerS, md.runsHandlerN)*1e6, "us")
	late, err := percentile(p.mixed.hits.late, 0.99)
	if err != nil {
		return nil, err
	}
	put("bench.gen_late_p99_ms", late*1e3, "ms")
	// Hit latency is reported here, without a bound: on a 2-vCPU VM it is
	// set by how fast idle vCPUs wake, and between runs of the same code
	// its median moved by a quarter and its tail twofold, so no
	// end-to-end bound could hold it.
	for _, q := range []struct {
		name string
		p    float64
	}{{"hit_p50_us", 0.5}, {"hit_p99_us", 0.99}} {
		v, err := percentile(p.mixed.hits.latency, q.p)
		if err != nil {
			return nil, err
		}
		put(q.name, v*1e6, "us")
	}
	return m, nil
}

// heapSampler samples the live heap every 5 ms over a run: the heap
// marked reachable by the latest garbage collection, which unlike the
// allocated total does not depend on when collections happen to run.
type heapSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64 // MiB
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling (once) and returns the peak the live heap held for
// at least 1% of the run: the 99th percentile of the samples. The single
// highest sample depends on which two machines happen to be alive at one
// collection and swings by a third between runs; this does not.
func (h *heapSampler) stop() (float64, error) {
	h.once.Do(func() {
		close(h.stopc)
		<-h.done
	})
	return percentile(h.samples, 0.99)
}

// provenanceLine makes results comparable across hosts and commits.
type provenanceLine struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

func provenance(workload string, seed uint64, traced bool) (provenanceLine, error) {
	commit, err := commitID()
	return provenanceLine{
		Workload:   workload,
		Seed:       seed,
		Trace:      traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
	}, err
}

// commitID is the VCS revision the binary was built from, or, in a
// checkout without version control, "tree:" and a digest of the Go
// sources and module files under the working directory.
func commitID() (string, error) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "-dirty"
			}
			return rev, nil
		}
	}
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil)[:10]), nil
}

// pinDigests records the digest of every result the benchmark can see at
// the default seed. Run it only when the simulated results are meant to
// change, never to make a performance change pass.
func pinDigests() error {
	jobs := runtime.NumCPU()
	out := map[string]string{}
	add := func(label string, res uc.Result) error {
		d, err := digest(res)
		out[label] = d
		return err
	}
	points := sweepPoints(defaultSeed)
	sw, err := uc.SpeedupMany(uc.Plan{Points: points, Jobs: jobs})
	if err != nil {
		return err
	}
	for i, r := range sw {
		if err := add(sweepLabel(points[i]), r.Design); err != nil {
			return err
		}
		if err := add(sweepLabel(r.Baseline.Run), r.Baseline); err != nil {
			return err
		}
	}
	var runs []uc.Run
	var labels []string
	for k := 0; k < hitKeys; k++ {
		runs, labels = append(runs, hitRun(defaultSeed, k)), append(labels, hitLabel(k))
	}
	for n := 0; n < pinnedCold; n++ {
		runs, labels = append(runs, coldRun(defaultSeed, n)), append(labels, coldLabel(n))
	}
	results, err := uc.ExecuteMany(uc.Plan{Points: runs, Jobs: jobs})
	if err != nil {
		return err
	}
	for i, res := range results {
		if err := add(labels[i], res); err != nil {
			return err
		}
	}
	return os.WriteFile(digestsPath, writeDigests(out), 0o644)
}
