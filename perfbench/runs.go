package main

import (
	"fmt"

	uc "unisoncache"
)

// The Figure 7 slice the benchmark sweeps. data-serving is design-heavy
// under Unison; web-search has a high UIPC and spends its time in the
// SRAM caches and trace generation; tpch's 96 GB working set drives
// Alloy to about three quarters misses. Together they show a layer change
// that helps one design or profile and hurts another.
var (
	sweepProfiles = []string{"data-serving", "web-search", "tpch"}
	sweepDesigns  = []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison}
)

const (
	capacity = 1 << 30 // 1 GB, the Figure 7 design point
	cores    = 16
	// sweepAccesses is the experiments tool's quick-run length: a sweep
	// takes about a second of two CPUs, so a run repeats it several times.
	sweepAccesses = 80_000
	// smallAccesses sizes service requests: long enough to exercise every
	// layer, short enough that service overhead is a visible share.
	smallAccesses = 5_000
	// hitKeys is how many distinct results set-up primes and the mixed
	// phase repeats.
	hitKeys = 24
	// pinnedCold is how many cold requests the digest file covers at the
	// default seed; later ones are re-executed in process instead.
	pinnedCold = 4096
	// sampledLabels is how many cold requests and hit keys are re-executed
	// in process at other seeds.
	sampledLabels = 8
)

// runSeed derives the seed of one generated run from the benchmark seed:
// a splitmix64 hash of (seed, stream, n), never zero (zero means "the
// default" to Run). Distinct streams keep sweep, hit and cold runs apart,
// so every cold request is a configuration the daemon has never seen.
func runSeed(seed, stream, n uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 ^ stream<<56 ^ n
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

const (
	streamSweep uint64 = iota + 1
	streamHit
	streamCold
)

func baseRun(workload string, design uc.DesignKind, accesses int, seed uint64) uc.Run {
	return uc.Run{
		Workload:        workload,
		Design:          design,
		Capacity:        capacity,
		AccessesPerCore: accesses,
		Seed:            seed,
		Cores:           cores,
	}
}

// sweepPoints is the Figure 7 plan: profiles × designs, in Sweep order.
func sweepPoints(seed uint64) []uc.Run {
	s := runSeed(seed, streamSweep, 0)
	var pts []uc.Run
	for _, w := range sweepProfiles {
		for _, d := range sweepDesigns {
			pts = append(pts, baseRun(w, d, sweepAccesses, s))
		}
	}
	return pts
}

func sweepLabel(r uc.Run) string { return fmt.Sprintf("sweep/%s/%s", r.Workload, r.Design) }

// The service workloads take designs round robin, the baseline included,
// so a change to any one design shows in the cold-request latency.
var serviceDesigns = []uc.DesignKind{uc.DesignNone, uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison}

func serviceRun(stream uint64, seed uint64, n int) uc.Run {
	w := sweepProfiles[n%len(sweepProfiles)]
	d := serviceDesigns[(n/len(sweepProfiles))%len(serviceDesigns)]
	return baseRun(w, d, smallAccesses, runSeed(seed, stream, uint64(n)))
}

// hitRun is the k-th primed key of the mixed phase.
func hitRun(seed uint64, k int) uc.Run { return serviceRun(streamHit, seed, k) }

func hitLabel(k int) string { return fmt.Sprintf("hit/%d", k) }

// coldRun is the n-th never-seen request of a run.
func coldRun(seed uint64, n int) uc.Run { return serviceRun(streamCold, seed, n) }

func coldLabel(n int) string { return fmt.Sprintf("cold/%d", n) }

// sampledLabel picks the results re-executed in process away from the
// default seed: the first few cold requests and hit keys, and one sweep
// point per design class.
func sampledLabel(label string) bool {
	var n int
	switch {
	case label == "sweep/web-search/unison", label == "sweep/tpch/none":
		return true
	case scanIndex(label, "cold/%d", &n), scanIndex(label, "hit/%d", &n):
		return n < sampledLabels
	}
	return false
}

func scanIndex(label, format string, n *int) bool {
	_, err := fmt.Sscanf(label, format, n)
	return err == nil
}
