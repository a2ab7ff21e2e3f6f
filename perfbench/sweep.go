package main

import (
	"fmt"
	"reflect"
	"time"

	uc "unisoncache"
)

// sweepStats records the timed Figure 7 sweeps of one run.
type sweepStats struct {
	walls   []float64 // seconds per sweep
	events  int64     // simulated events over all timed sweeps
	speedup float64   // geometric mean of the Unison speedups
}

// sweepEvents is the simulated event count of one SpeedupMany pass: every
// point plus each distinct baseline, the memoized ones counted once.
func sweepEvents(res []uc.SpeedupResult) int64 {
	var n int64
	baselines := map[uc.Run]bool{}
	for _, r := range res {
		n += int64(r.Design.Run.AccessesPerCore * r.Design.Run.Cores)
		if !baselines[r.Baseline.Run] {
			baselines[r.Baseline.Run] = true
			n += int64(r.Baseline.Run.AccessesPerCore * r.Baseline.Run.Cores)
		}
	}
	return n
}

// unisonSpeedup is the geometric mean over profiles of Unison UIPC over
// the no-DRAM-cache baseline's.
func unisonSpeedup(res []uc.SpeedupResult) float64 {
	var s []float64
	for _, r := range res {
		if r.Design.Run.Design == uc.DesignUnison {
			s = append(s, r.Speedup)
		}
	}
	return geomean(s)
}

// checkSweep passes every design and baseline result of one sweep through
// the correctness gate and returns how many points failed.
func (b *bench) checkSweep(points []uc.Run, res []uc.SpeedupResult) int {
	failed := 0
	for i, r := range res {
		ok := b.check.check(sweepLabel(points[i]), r.Design.Run, r.Design)
		ok = b.check.check(sweepLabel(r.Baseline.Run), r.Baseline.Run, r.Baseline) && ok
		if !ok {
			b.logf("sweep point %s: result differs from the reference", sweepLabel(points[i]))
			failed++
		}
	}
	return failed
}

// sweepOnce runs the plan once and accounts its points as operations.
func (b *bench) sweepOnce(plan uc.Plan) ([]uc.SpeedupResult, time.Duration, error) {
	start := time.Now()
	res, err := uc.SpeedupMany(plan)
	wall := time.Since(start)
	b.attempted.Add(int64(len(plan.Points)))
	if err != nil {
		b.failed.Add(int64(len(plan.Points)))
		return nil, wall, err
	}
	b.failed.Add(int64(b.checkSweep(plan.Points, res)))
	return res, wall, nil
}

// runSweeps is the sweep phase's closed loop: SpeedupMany over the plan
// with Jobs = nproc, repeated until dur has passed and at least minSweeps
// have run.
func (b *bench) runSweeps(dur time.Duration) (sweepStats, error) {
	var st sweepStats
	plan := uc.Plan{Points: sweepPoints(b.seed), Jobs: b.nproc}
	start := time.Now()
	for len(st.walls) < minSweeps || time.Since(start) < dur {
		res, wall, err := b.sweepOnce(plan)
		if err != nil {
			return st, err
		}
		st.walls = append(st.walls, wall.Seconds())
		st.events += sweepEvents(res)
		st.speedup = unisonSpeedup(res)
	}
	return st, nil
}

// sweepTrace is the traced pass over the sweep: one untraced sweep as
// the reference and overhead base, one sweep on traced machines, and a
// standalone SRAM replay per profile.
type sweepTrace struct {
	untraced, traced time.Duration
	results          []uc.SpeedupResult
	runs             []*runSpans
	caches           map[string]cacheReplay
	jobs             int
}

// traceSweep aborts with an error if any traced point's Results differ
// from the untraced run's, or if a standalone L1 replay's hit rate
// differs from the machine's.
func (b *bench) traceSweep() (sweepTrace, error) {
	st := sweepTrace{jobs: b.nproc, caches: map[string]cacheReplay{}}
	plan := uc.Plan{Points: sweepPoints(b.seed), Jobs: b.nproc}
	ref, wall, err := b.sweepOnce(plan)
	if err != nil {
		return st, err
	}
	st.untraced = wall
	tr := &tracer{}
	plan.Executor = tr.executor()
	traced, wall, err := b.sweepOnce(plan)
	if err != nil {
		return st, err
	}
	st.traced = wall
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Design.Results, traced[i].Design.Results) ||
			!reflect.DeepEqual(ref[i].Baseline.Results, traced[i].Baseline.Results) {
			return st, fmt.Errorf("traced pass: %s Results differ from the untraced run", sweepLabel(plan.Points[i]))
		}
	}
	st.results, st.runs = ref, tr.all()
	for _, r := range ref {
		for _, res := range []uc.Result{r.Design, r.Baseline} {
			w := res.Run.Workload
			cr, done := st.caches[w]
			if !done {
				if cr, err = replayCaches(res.Run); err != nil {
					return st, err
				}
				st.caches[w] = cr
			}
			if cr.L1HitRate != res.L1HitRate {
				return st, fmt.Errorf("standalone L1 replay of %s: hit rate %v, machine %v", sweepLabel(res.Run), cr.L1HitRate, res.L1HitRate)
			}
		}
	}
	return st, nil
}
