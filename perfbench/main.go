// Command perfbench is the repository's benchmark. It measures the
// simulator and its service end to end on two workloads, and, in a
// separate traced pass, splits the same work across the layers it goes
// through. See README.md for the workloads, the metrics and how they
// relate.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	uc "unisoncache"
)

const (
	// setupRepeats is how often a run builds its daemon and primes it;
	// setup_s is the median.
	setupRepeats = 5
	// runDeadline bounds every network call of a run.
	runDeadline = 150 * time.Second
	tmpRoot     = ".bench_build/perfbench-tmp"
	digestsPath = "perfbench/digests.txt"
)

// workload says how long each phase runs. Every run reports every
// end-to-end metric, so a workload runs every phase: its own, timed for
// --seconds, first, then the others as companions for three fifths as
// long. On a shared 2-vCPU host a phase needs about 15 s for its medians
// to repeat within a fifth from run to run.
type workload struct {
	order    []string
	sweepDur time.Duration
	coldDur  time.Duration
	mixedDur time.Duration
}

// minSweeps keeps sweep_s a median of at least three sweeps.
const minSweeps = 3

func workloads(seconds time.Duration) map[string]workload {
	companion := seconds * 3 / 5
	return map[string]workload{
		"sweep": {order: []string{"sweep", "cold", "mixed"},
			sweepDur: seconds, coldDur: companion, mixedDur: companion},
		"serve-cold": {order: []string{"cold", "mixed", "sweep"},
			sweepDur: companion, coldDur: seconds, mixedDur: companion},
	}
}

// bench is one run's state.
type bench struct {
	seed   uint64
	nproc  int
	traced bool
	check  *checker
	stderr io.Writer

	d     *daemon
	coldN atomic.Int64

	// execNS/execN time serve.Config.Execute in the traced pass.
	execNS, execN atomic.Int64

	attempted, failed atomic.Int64
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
}

// executeHook is the daemon's engine call in the traced pass: Execute,
// timed from outside.
func (b *bench) executeHook() func(uc.Run) (uc.Result, error) {
	if !b.traced {
		return nil
	}
	return func(r uc.Run) (uc.Result, error) {
		start := time.Now()
		res, err := uc.Execute(r)
		b.execNS.Add(int64(time.Since(start)))
		b.execN.Add(1)
		return res, err
	}
}

// setup builds a daemon over a fresh store and primes the hit keys: the
// work before a run's first timed operation.
func (b *bench) setup(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(tmpRoot, b.nproc, b.executeHook())
	if err != nil {
		return 0, err
	}
	b.d = d
	if err := b.prime(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sweep or serve-cold")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every generated run derives from it")
	seconds := fs.Int("seconds", 24, "length of the workload's timed phase")
	traceFlag := fs.Int("trace", 0, "1: traced pass printing the per-layer metrics")
	pin := fs.Bool("pin", false, "record the default-seed digests to "+digestsPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pin {
		return pinDigests()
	}
	wl, ok := workloads(time.Duration(*seconds) * time.Second)[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --workload sweep|serve-cold, --seconds >= 1, --trace 0|1")
	}
	b := &bench{seed: *seed, nproc: runtime.NumCPU(), traced: *traceFlag == 1, stderr: stderr}
	var err error
	if b.check, err = newChecker(b.seed); err != nil {
		return err
	}
	prov, err := provenance(*name, b.seed, b.traced)
	if err != nil {
		return err
	}
	metrics, err := b.measure(wl)
	if err != nil {
		return err
	}
	bad, err := b.check.verify()
	if err != nil {
		return err
	}
	for _, l := range bad {
		b.logf("%s: result differs from an in-process Execute", l)
	}
	b.failed.Add(int64(len(bad)))
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(prov); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   metrics,
	})
}

// measure runs the workload's phases and returns its metrics: the
// end-to-end set untraced, the per-layer set traced.
func (b *bench) measure(wl workload) (map[string]metric, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	heap := startHeapSampler()
	// Error paths stop the sampler too; its figure matters only on success.
	defer func() { _, _ = heap.stop() }()

	// Error paths still stop the daemon; the deferred stop's error is
	// moot beside the one being returned.
	defer func() {
		if b.d != nil {
			_ = b.d.stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b.d != nil {
			err := b.d.stop()
			b.d = nil
			if err != nil {
				return nil, err
			}
		}
		dur, err := b.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, dur.Seconds())
	}

	p := &phases{}
	var err error
	for _, ph := range wl.order {
		switch ph {
		case "sweep":
			if b.traced {
				p.sweepTrace, err = b.traceSweep()
			} else {
				p.sweep, err = b.runSweeps(wl.sweepDur)
			}
		case "cold":
			p.cold, err = b.runCold(ctx, wl.coldDur)
		case "mixed":
			p.mixed, err = b.runMixed(ctx, wl.mixedDur)
		}
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", ph, err)
		}
	}
	err = b.d.stop()
	b.d = nil
	if err != nil {
		return nil, err
	}
	heapPeak, err := heap.stop()
	if err != nil {
		return nil, err
	}
	if b.traced {
		return b.layerMetrics(p)
	}
	return b.endToEndMetrics(p, median(setups), heapPeak)
}
