package sim

import (
	"bytes"
	"reflect"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
)

// The designs below are sized for machine-level tests: small enough to
// churn evictions, large enough that the request mix covers hits, misses
// and write-backs.

func alloyDesign(s, o *dram.Controller) dramcache.Design {
	a, err := dramcache.NewAlloy(1<<20, 4, s, o)
	if err != nil {
		panic(err)
	}
	return a
}

func footprintDesign(s, o *dram.Controller) dramcache.Design {
	f, err := dramcache.NewFootprint(dramcache.FCConfig{CapacityBytes: 1 << 20, Ways: 32, TagLatency: 6}, s, o)
	if err != nil {
		panic(err)
	}
	return f
}

func unisonDesign(s, o *dram.Controller) dramcache.Design {
	u, err := core.New(core.Config{
		CapacityBytes: 1 << 20,
		LabelBytes:    32 << 20,
		PageBlocks:    15,
		Ways:          4,
	}, s, o)
	if err != nil {
		panic(err)
	}
	return u
}

// TestRunToChunkingMatchesRun is the chunking wall: a run advanced by
// BeginRun + RunTo in any step pattern must produce the same Results as
// one uninterrupted Run. Every RunTo call re-enters the clamp-and-park
// driver and rebuilds the tournament tree, so this pins the property that
// the schedule resumes exactly where it stopped — including chunks that
// end a few steps shy of, exactly on, and just past the warmup/measurement
// boundary, where the statistics reset fires.
func TestRunToChunkingMatchesRun(t *testing.T) {
	cfg := smallConfig(3) // three cores pad the tournament to four leaves
	const accesses = 4000

	// every returns the targets k, 2k, ... ending at TotalSteps; k == 0
	// means one chunk of TotalSteps.
	every := func(k uint64) func(m *Machine) []uint64 {
		return func(m *Machine) []uint64 {
			total := m.TotalSteps()
			if k == 0 {
				k = total
			}
			var targets []uint64
			for s := k; s < total; s += k {
				targets = append(targets, s)
			}
			return append(targets, total)
		}
	}
	splits := []struct {
		name    string
		targets func(m *Machine) []uint64
	}{
		{"k=1", every(1)},
		{"k=2", every(2)},
		{"k=7", every(7)},
		{"k=97", every(97)},
		{"k=1009", every(1009)},
		{"k=TotalSteps", every(0)},
		{"warm-boundary", func(m *Machine) []uint64 {
			w := m.WarmSteps()
			return []uint64{w - 3, w, w + 1}
		}},
	}
	designs := []struct {
		name  string
		build func(s, o *dram.Controller) dramcache.Design
	}{
		{"none", noneDesign},
		{"alloy", alloyDesign},
		{"footprint", footprintDesign},
		{"unison", unisonDesign},
	}
	for _, d := range designs {
		want := testMachine(t, cfg, "data-serving", d.build).Run(accesses)
		for _, sp := range splits {
			t.Run(d.name+"/"+sp.name, func(t *testing.T) {
				m := testMachine(t, cfg, "data-serving", d.build)
				m.BeginRun(accesses)
				for _, target := range sp.targets(m) {
					m.RunTo(target)
				}
				if got := m.FinishRun(); !reflect.DeepEqual(got, want) {
					t.Errorf("chunked run diverges from Run:\nchunked %+v\nrun     %+v", got, want)
				}
			})
		}
	}
}

// machineCheckpoint serializes a machine's full state.
func machineCheckpoint(t *testing.T, m *Machine) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	m.SaveState(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return w.Bytes()
}

// TestCheckpointRestoreMatchesRun: a run checkpointed mid-warmup and
// restored into a fresh machine must finish bit-identical to an
// uninterrupted run, down to the checkpoint bytes.
func TestCheckpointRestoreMatchesRun(t *testing.T) {
	cfg := smallConfig(4)
	const accesses = 5000

	ref := testMachine(t, cfg, "data-serving", unisonDesign)
	want := ref.Run(accesses)

	saver := testMachine(t, cfg, "data-serving", unisonDesign)
	saver.BeginRun(accesses)
	saver.RunTo(saver.TotalSteps() / 3)
	blob := machineCheckpoint(t, saver)

	restored := testMachine(t, cfg, "data-serving", unisonDesign)
	restored.BeginRun(accesses)
	if err := restored.LoadState(checkpoint.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if got := restored.FinishRun(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverges from Run:\nrestored %+v\nrun      %+v", got, want)
	}
	if !bytes.Equal(machineCheckpoint(t, ref), machineCheckpoint(t, restored)) {
		t.Error("checkpoint bytes diverge after restored run")
	}
}
