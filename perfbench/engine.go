package main

import (
	"fmt"
	"sync"
	"time"

	uc "unisoncache"
	"unisoncache/internal/config"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

// This file rebuilds a Run's machine from the public constructors, the
// way the facade's newMachine and buildDesign do, with timing wrappers at
// two layer boundaries: every trace.Batcher the cores pull from, and the
// dramcache.Design the L2 misses go to. Nothing inside the program is
// instrumented; the wrappers only time the calls crossing those
// boundaries, and the traced pass checks that the Results they produce
// equal the untraced run's exactly.

// runSpans is one traced run's layer record. Spans of one run share its
// ID. The trace and design boundaries are crossed millions of times per
// run, so they are kept as aggregate spans (total time and call count)
// rather than one record per call; setup, replay and the whole executor
// call are single spans.
type runSpans struct {
	ID     int
	Design uc.DesignKind

	ExecNS   int64 // Plan.Executor call: setup + replay + result assembly
	SetupNS  int64 // machine construction (unisoncache layer)
	ReplayNS int64 // sim.Machine.Run (sim layer, parent of the two below)

	TraceNS int64 // inside NextBatch, a child of replay
	Events  int64 // events the sources delivered

	// The design is timed on a pseudo-random eighth of its calls, since
	// a clock read costs about as much as a design access on a VM.
	// DesignReqs counts every request; the sampled time scales up by the
	// requests it covered.
	DesignReqs       int64
	DesignSampledNS  int64
	DesignSampledReq int64
	sampler          uint64

	Results sim.Results
}

// DesignNS estimates the time inside the design from the sampled calls.
func (r *runSpans) DesignNS() int64 {
	if r.DesignSampledReq == 0 {
		return 0
	}
	return int64(float64(r.DesignSampledNS) * float64(r.DesignReqs) / float64(r.DesignSampledReq))
}

// sampled advances the run's sampling sequence (a 64-bit LCG) and
// reports whether this design call is timed: one in eight, without the
// aliasing a fixed stride would have against periodic request patterns.
func (r *runSpans) sampled() bool {
	r.sampler = r.sampler*6364136223846793005 + 1442695040888963407
	return r.sampler>>61 == 0
}

// epoch anchors clockNS: time.Since on a monotonic start costs one clock
// read, where time.Now costs two.
var epoch = time.Now()

func clockNS() int64 { return int64(time.Since(epoch)) }

// spanCost is what an empty span measures: the clock overhead inside
// every timed interval, subtracted from each one.
var spanCost = sync.OnceValue(func() int64 {
	const n = 1 << 16
	var sum int64
	for i := 0; i < n; i++ {
		start := clockNS()
		sum += clockNS() - start
	}
	return sum / n
})

// tracer keeps every run's spans in memory until the benchmark ends.
type tracer struct {
	mu   sync.Mutex
	runs []*runSpans
}

func (t *tracer) newRun(r uc.Run) *runSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &runSpans{ID: len(t.runs), Design: r.Design, sampler: uint64(len(t.runs))}
	t.runs = append(t.runs, s)
	return s
}

func (t *tracer) all() []*runSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*runSpans(nil), t.runs...)
}

// timedSource wraps one core's event source. The machine pulls through
// NextBatch only, a batch of 256 events at a time, so every call is
// timed; Next is forwarded for completeness of the interface.
type timedSource struct {
	src   trace.Batcher
	spans *runSpans
	cost  int64
}

func (s *timedSource) Next() trace.Event { return s.src.Next() }

func (s *timedSource) NextBatch(dst []trace.Event) int {
	start := clockNS()
	n := s.src.NextBatch(dst)
	s.spans.TraceNS += clockNS() - start - s.cost
	s.spans.Events += int64(n)
	return n
}

// timedDesign embeds the design interface, so it keeps compiling as
// methods come and go; it overrides only the access paths it times.
type timedDesign struct {
	dramcache.Design
	spans *runSpans
	cost  int64
}

func (d *timedDesign) Access(r dramcache.Request) dramcache.Response {
	d.spans.DesignReqs++
	if !d.spans.sampled() {
		return d.Design.Access(r)
	}
	start := clockNS()
	resp := d.Design.Access(r)
	d.spans.DesignSampledNS += clockNS() - start - d.cost
	d.spans.DesignSampledReq++
	return resp
}

// batchAccessor is the batched access path, reached by assertion so the
// wrapper does not depend on the path existing.
type batchAccessor interface {
	AccessBatch(reqs []dramcache.Request, resps []dramcache.Response)
}

func (d *timedDesign) AccessBatch(reqs []dramcache.Request, resps []dramcache.Response) {
	d.spans.DesignReqs += int64(len(reqs))
	if !d.spans.sampled() {
		d.Design.(batchAccessor).AccessBatch(reqs, resps)
		return
	}
	start := clockNS()
	d.Design.(batchAccessor).AccessBatch(reqs, resps)
	d.spans.DesignSampledNS += clockNS() - start - d.cost
	d.spans.DesignSampledReq += int64(len(reqs))
}

// scaledProfile is the workload's built-in profile with the working set
// divided by the run's scale divisor, floored at one region.
func scaledProfile(r uc.Run) (*trace.Profile, error) {
	prof, ok := trace.Profiles()[r.Workload]
	if !ok {
		return nil, fmt.Errorf("workload %q is not built in", r.Workload)
	}
	scaled := *prof
	scaled.WorkingSetBytes = prof.WorkingSetBytes / uint64(r.ScaleDivisor)
	if scaled.WorkingSetBytes < trace.RegionBytes {
		scaled.WorkingSetBytes = trace.RegionBytes
	}
	return &scaled, nil
}

// machineConfig is the run's core/cache configuration: the default CMP
// with the L2 shrunk by the scale divisor (floor 128 KB).
func machineConfig(r uc.Run) sim.Config {
	cfg := sim.Default()
	cfg.Cores = r.Cores
	if scaled := cfg.L2.SizeBytes / r.ScaleDivisor; scaled >= 128<<10 {
		cfg.L2.SizeBytes = scaled
	} else {
		cfg.L2.SizeBytes = 128 << 10
	}
	return cfg
}

// buildDesign constructs the design under test for the designs the
// benchmark runs.
func buildDesign(r uc.Run, stacked, offchip *dram.Controller) (dramcache.Design, error) {
	simCap := r.Capacity / uint64(r.ScaleDivisor)
	if simCap < mem.RowBytes {
		simCap = mem.RowBytes
	}
	switch r.Design {
	case uc.DesignUnison:
		return core.New(core.Config{
			CapacityBytes: simCap,
			LabelBytes:    r.Capacity,
			PageBlocks:    15,
			Ways:          r.UnisonWays,
		}, stacked, offchip)
	case uc.DesignAlloy:
		return dramcache.NewAlloy(simCap, r.Cores, stacked, offchip)
	case uc.DesignFootprint:
		return dramcache.NewFootprint(dramcache.FCConfig{
			CapacityBytes: simCap,
			Ways:          r.FCWays,
			TagLatency:    config.FCTagLatency(r.Capacity),
		}, stacked, offchip)
	case uc.DesignNone:
		return dramcache.NewNone(offchip), nil
	default:
		return nil, fmt.Errorf("design %q is not traced", r.Design)
	}
}

// newTracedMachine builds r's machine with timed sources and design. r
// must be fully defaulted (a Plan hands its Executor defaulted runs).
func newTracedMachine(r uc.Run, spans *runSpans) (*sim.Machine, error) {
	prof, err := scaledProfile(r)
	if err != nil {
		return nil, err
	}
	sources := make([]trace.Source, r.Cores)
	for i := range sources {
		s, err := trace.NewStream(prof, r.Seed, i)
		if err != nil {
			return nil, err
		}
		sources[i] = &timedSource{src: s, spans: spans, cost: spanCost()}
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		return nil, err
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		return nil, err
	}
	design, err := buildDesign(r, stacked, offchip)
	if err != nil {
		return nil, err
	}
	return sim.New(machineConfig(r), sources, &timedDesign{Design: design, spans: spans, cost: spanCost()}, stacked, offchip)
}

// executor returns a Plan.Executor that runs each point on a traced
// machine and records its spans.
func (t *tracer) executor() func(uc.Run) (uc.Result, error) {
	return func(r uc.Run) (uc.Result, error) {
		spans := t.newRun(r)
		start := clockNS()
		m, err := newTracedMachine(r, spans)
		if err != nil {
			return uc.Result{}, err
		}
		built := clockNS()
		res := m.Run(r.AccessesPerCore)
		replayed := clockNS()
		spans.SetupNS = built - start
		spans.ReplayNS = replayed - built
		spans.Results = res
		out := uc.Result{Results: res, Run: r}
		spans.ExecNS = clockNS() - start
		return out, nil
	}
}

// layerTotals is the sum of a set of runs' spans, split into self times:
// each layer's time minus the part its child spans cover.
type layerTotals struct {
	Runs       int
	ExecNS     int64
	SetupNS    int64
	ReplayNS   int64
	TraceNS    int64
	DesignNS   int64
	SimSelfNS  int64 // replay minus its trace and design children
	UnexplNS   int64 // executor time no layer span covers
	Events     int64
	DesignReqs int64
}

// sumLayers adds up runs' spans and derives self times. The layer self
// times plus the unexplained remainder add back up to the executor time
// exactly: setup + trace + design + sim self + unexplained = exec.
func sumLayers(runs []*runSpans) layerTotals {
	var t layerTotals
	for _, r := range runs {
		t.Runs++
		t.ExecNS += r.ExecNS
		t.SetupNS += r.SetupNS
		t.ReplayNS += r.ReplayNS
		t.TraceNS += r.TraceNS
		t.DesignNS += r.DesignNS()
		t.Events += r.Events
		t.DesignReqs += r.DesignReqs
	}
	t.SimSelfNS = t.ReplayNS - t.TraceNS - t.DesignNS
	t.UnexplNS = t.ExecNS - t.SetupNS - t.ReplayNS
	return t
}
