package unisoncache

import (
	"runtime"
	"testing"
)

// machineBudgetMB caps the megabytes (10^6 bytes) one 1 GB, 16-core tpch
// machine build allocates, per design: the measured figure plus 5%. The
// big per-run tables (Alloy's TAD array, the page tables, the SRAM
// arrays, every core's event slab) set these figures and the host's heap
// peak with them, so a table that grows past its budget fails here before
// it shows up in a benchmark.
var machineBudgetMB = map[DesignKind]float64{
	DesignNone:      0.347 * 1.05,
	DesignAlloy:     2.186 * 1.05,
	DesignFootprint: 1.222 * 1.05,
	DesignUnison:    1.898 * 1.05,
}

// TestMachineFootprint is the host-memory wall: it counts the bytes
// newMachine allocates for each design, after one warm-up build so the
// geometric tables every stream of a profile shares are not charged to a
// single run. The smallest of three builds is kept, which screens out
// allocation by goroutines other tests left behind.
func TestMachineFootprint(t *testing.T) {
	r := Run{Workload: "tpch", Design: DesignNone, Capacity: 1 << 30, Cores: 16}.withDefaults()
	if _, _, err := newMachine(r); err != nil {
		t.Fatal(err)
	}
	for _, d := range []DesignKind{DesignNone, DesignAlloy, DesignFootprint, DesignUnison} {
		r.Design = d
		var best uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := newMachine(r)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
				best = b
			}
		}
		mb := float64(best) / 1e6
		t.Logf("%s: %.3f MB per build", d, mb)
		if mb > machineBudgetMB[d] {
			t.Errorf("%s: one build allocates %.2f MB, budget %.2f MB", d, mb, machineBudgetMB[d])
		}
	}
}
