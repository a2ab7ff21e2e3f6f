package dramcache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
	"unisoncache/internal/trace"
)

func newAlloy(t *testing.T, capacity uint64) (*Alloy, *dram.Controller, *dram.Controller) {
	t.Helper()
	s, o := parts(t)
	a, err := NewAlloy(capacity, 16, s, o)
	if err != nil {
		t.Fatal(err)
	}
	return a, s, o
}

func TestAlloyRejectsTinyCapacity(t *testing.T) {
	s, o := parts(t)
	if _, err := NewAlloy(100, 1, s, o); err == nil {
		t.Error("sub-row capacity accepted")
	}
}

func TestAlloyMissThenHit(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	r1 := a.Access(Request{Addr: 4096, PC: 1, At: 0})
	if r1.Hit {
		t.Error("cold access hit")
	}
	r2 := a.Access(Request{Addr: 4096, PC: 1, At: r1.DoneAt})
	if !r2.Hit {
		t.Error("refetched block missed")
	}
	snap := a.Snapshot()
	if snap.Reads != 2 || snap.ReadHits != 1 {
		t.Errorf("reads/hits = %d/%d", snap.Reads, snap.ReadHits)
	}
	if snap.MissRatioPct() != 50 {
		t.Errorf("miss ratio = %v", snap.MissRatioPct())
	}
}

func TestAlloyDirectMappedConflict(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20) // 128 rows x 112 TADs = 14336 slots
	numTADs := uint64(1<<20) / mem.RowBytes * TADsPerRow
	b1 := uint64(5)
	b2 := b1 + numTADs // same slot
	a.Access(Request{Addr: mem.BlockAddr(b1), At: 0})
	a.Access(Request{Addr: mem.BlockAddr(b2), At: 1000})
	if a.Contains(b1) {
		t.Error("conflicting block survived in a direct-mapped cache")
	}
	if !a.Contains(b2) {
		t.Error("newly fetched block absent")
	}
}

func TestAlloyDirtyWritebackOnConflict(t *testing.T) {
	a, _, o := newAlloy(t, 1<<20)
	numTADs := uint64(1<<20) / mem.RowBytes * TADsPerRow
	// Install dirty via an L2 writeback, then conflict-evict it.
	a.Access(Request{Addr: mem.BlockAddr(7), Write: true, At: 0})
	before := o.Stats().BytesWritten
	a.Access(Request{Addr: mem.BlockAddr(7 + numTADs), At: 100})
	if got := o.Stats().BytesWritten - before; got != mem.BlockSize {
		t.Errorf("dirty conflict wrote %d off-chip bytes, want 64", got)
	}
	if a.Snapshot().OffchipWriteBytes != mem.BlockSize {
		t.Error("writeback traffic not counted")
	}
}

func TestAlloyWriteHitNoOffchip(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	a.Access(Request{Addr: 64, At: 0})
	snap0 := a.Snapshot()
	r := a.Access(Request{Addr: 64, Write: true, At: 1000})
	if !r.Hit {
		t.Error("write to cached block missed")
	}
	snap := a.Snapshot()
	if snap.OffchipReadBytes != snap0.OffchipReadBytes || snap.OffchipWriteBytes != 0 {
		t.Error("write hit generated off-chip traffic")
	}
	if snap.Writes != 1 {
		t.Errorf("Writes = %d", snap.Writes)
	}
}

func TestAlloyPredictedMissOverlapsOffchip(t *testing.T) {
	// A correctly predicted miss launches off-chip immediately after the
	// 1-cycle predictor; a mispredicted miss waits for the TAD probe. So
	// cold misses (predictor initialized toward miss) must be faster than
	// misses right after the predictor learned hits for the PC.
	aFast, _, _ := newAlloy(t, 1<<20)
	missLatFast := aFast.Access(Request{Addr: 4096, PC: 42, At: 0}).DoneAt

	aSlow, _, _ := newAlloy(t, 1<<20)
	// Teach PC 42 to predict hit.
	at := uint64(0)
	for i := 0; i < 8; i++ {
		aSlow.Access(Request{Addr: 4096, PC: 42, At: at})
		at += 2000
	}
	// Distinct cold block, same PC: predicted hit, actual miss.
	r := aSlow.Access(Request{Addr: 1 << 19, PC: 42, At: 1 << 20})
	if r.Hit {
		t.Fatal("expected miss")
	}
	missLatSlow := r.DoneAt - (1 << 20)
	if missLatSlow <= missLatFast {
		t.Errorf("mispredicted miss (%d cycles) not slower than predicted miss (%d)", missLatSlow, missLatFast)
	}
}

func TestAlloyFalseMissTraffic(t *testing.T) {
	a, _, o := newAlloy(t, 1<<20)
	// Prime the block and train the predictor toward miss for PC 9 by
	// touching many cold blocks with it.
	r := a.Access(Request{Addr: 64, PC: 9, At: 0})
	at := r.DoneAt
	for i := 1; i < 8; i++ {
		at = a.Access(Request{Addr: mem.Addr(1<<18 + i*64), PC: 9, At: at}).DoneAt
	}
	// Now access the cached block with the miss-trained PC: a false miss.
	reads0 := o.Stats().BytesRead
	res := a.Access(Request{Addr: 64, PC: 9, At: at})
	if !res.Hit {
		t.Fatal("block should be cached")
	}
	if o.Stats().BytesRead == reads0 {
		t.Error("false miss generated no wasted off-chip fetch")
	}
	if a.MissPredictor().Stats().FalseMiss == 0 {
		t.Error("false miss not recorded")
	}
}

func TestAlloySnapshotHasMP(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	a.Access(Request{Addr: 0, At: 0})
	s := a.Snapshot()
	if s.MP == nil {
		t.Fatal("MP stats missing")
	}
	if s.FP != nil || s.WP != nil {
		t.Error("alloy should not report FP/WP stats")
	}
	a.ResetStats()
	if a.Snapshot().MP.Den != 0 {
		t.Error("ResetStats did not clear MP")
	}
}

func TestAlloyHitFasterThanMiss(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	miss := a.Access(Request{Addr: 8192, PC: 3, At: 0})
	hit := a.Access(Request{Addr: 8192, PC: 3, At: 100000})
	missLat := miss.DoneAt
	hitLat := hit.DoneAt - 100000
	if hitLat >= missLat {
		t.Errorf("hit latency %d >= miss latency %d", hitLat, missLat)
	}
}

func TestAlloyCapacityScaling(t *testing.T) {
	small, _, _ := newAlloy(t, 1<<20)
	large, _, _ := newAlloy(t, 1<<24)
	if small.numTADs*16 != large.numTADs {
		t.Errorf("TAD count not linear: %d vs %d", small.numTADs, large.numTADs)
	}
}

// TestAlloyTagCoversAcceptedInput: the smallest cache (one row of TADs)
// still names every block below trace.MaxWorkingSetBytes with its 30-bit
// tag, so no accepted workload or capture can alias two blocks.
func TestAlloyTagCoversAcceptedInput(t *testing.T) {
	if maxBlock := uint64(trace.MaxWorkingSetBytes/mem.BlockSize - 1); maxBlock/TADsPerRow > maxTADTag {
		t.Errorf("block %d of a one-row cache needs tag %d, above %d", maxBlock, maxBlock/TADsPerRow, maxTADTag)
	}
}

// TestAlloyDirtyVictimAddress: a dirty TAD evicted by a conflicting fill is
// written back to its own block, rebuilt from the stored tag and the slot,
// at both ends of the slot range and at the largest tag, by a read miss
// and by a writeback miss alike.
func TestAlloyDirtyVictimAddress(t *testing.T) {
	numTADs := uint64(1<<20) / mem.RowBytes * TADsPerRow
	cases := []struct {
		name         string
		victim, next uint64
	}{
		{"slot 0", 3 * numTADs, 5 * numTADs},
		{"last slot", 2*numTADs + numTADs - 1, numTADs - 1},
		{"largest tag", maxTADTag*numTADs + 77, 77},
	}
	for _, c := range cases {
		for _, write := range []bool{false, true} {
			a, _, o := newAlloy(t, 1<<20)
			victim, next := uint64(mem.BlockAddr(c.victim)), uint64(mem.BlockAddr(c.next))
			vch, vbank, vrow := o.MapAddr(victim)
			if nch, nbank, nrow := o.MapAddr(next); nch == vch && nbank == vbank && nrow == vrow {
				t.Fatalf("%s: victim and conflicting block share an off-chip row", c.name)
			}
			a.Access(Request{Addr: mem.Addr(victim), Write: true, At: 0})
			before := o.Stats().BytesWritten
			a.Access(Request{Addr: mem.Addr(next), Write: write, At: 1000})
			if got := o.Stats().BytesWritten - before; got != mem.BlockSize {
				t.Errorf("%s (write=%v): eviction wrote %d off-chip bytes, want 64", c.name, write, got)
			}
			// The writeback is the last off-chip request and left its row
			// open: a read of the victim's address must hit that row.
			if !o.Access(victim, 1<<20, mem.BlockSize, false).RowHit {
				t.Errorf("%s (write=%v): writeback did not go to the victim's row", c.name, write)
			}
			if a.Contains(c.victim) || !a.Contains(c.next) {
				t.Errorf("%s (write=%v): slot holds the wrong block", c.name, write)
			}
		}
	}
}

// alloyWords returns the TAD words of a's snapshot and their byte offset.
func alloyWords(t *testing.T, a *Alloy) (blob []byte, off int) {
	t.Helper()
	w := checkpoint.NewWriter()
	a.SaveState(w)
	hdr := checkpoint.NewWriter()
	hdr.Section("alloy")
	hdr.U64(a.numTADs)
	return w.Bytes(), len(hdr.Bytes())
}

// TestAlloyCheckpointWords: the snapshot holds the full-block word
// block<<2 | state per slot, 0 for an empty slot, whatever the live table
// packs; restoring it rebuilds the same cache and the same bytes.
func TestAlloyCheckpointWords(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	n := a.numTADs
	clean, dirty, top := 2*n, 4*n+n-1, maxTADTag*n+9
	a.Access(Request{Addr: mem.BlockAddr(clean), At: 0})
	a.Access(Request{Addr: mem.BlockAddr(dirty), Write: true, At: 100})
	a.Access(Request{Addr: mem.BlockAddr(top), Write: true, At: 200})
	blob, off := alloyWords(t, a)
	word := func(slot uint64) uint64 { return binary.LittleEndian.Uint64(blob[off+8*int(slot):]) }
	for _, c := range []struct{ slot, want uint64 }{
		{0, clean<<2 | uint64(tadClean)},
		{n - 1, dirty<<2 | uint64(tadDirty)},
		{9, top<<2 | uint64(tadDirty)},
		{1, 0},
	} {
		if got := word(c.slot); got != c.want {
			t.Errorf("slot %d: word %#x, want %#x", c.slot, got, c.want)
		}
	}

	b, _, _ := newAlloy(t, 1<<20)
	if err := b.LoadState(checkpoint.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []uint64{clean, dirty, top} {
		if !b.Contains(blk) {
			t.Errorf("block %d lost in the round trip", blk)
		}
	}
	if again, _ := alloyWords(t, b); !bytes.Equal(again, blob) {
		t.Error("restored cache saves different bytes")
	}
}

// TestAlloyLoadStateRejectsUnpackableWords: a word the live table cannot
// hold is an error, not a silently aliased TAD.
func TestAlloyLoadStateRejectsUnpackableWords(t *testing.T) {
	a, _, _ := newAlloy(t, 1<<20)
	n := a.numTADs
	cases := []struct {
		name string
		slot uint64
		word uint64
	}{
		{"nonzero word, invalid state", 5, (n+5)<<2 | uint64(tadInvalid)},
		{"undefined state", 5, (n+5)<<2 | 3},
		{"block maps to another slot", 5, (n+6)<<2 | uint64(tadClean)},
		{"tag beyond 30 bits", 5, ((maxTADTag+1)*n+5)<<2 | uint64(tadClean)},
	}
	for _, c := range cases {
		blob, off := alloyWords(t, a)
		binary.LittleEndian.PutUint64(blob[off+8*int(c.slot):], c.word)
		b, _, _ := newAlloy(t, 1<<20)
		if err := b.LoadState(checkpoint.NewReader(blob)); err == nil {
			t.Errorf("%s: word %#x accepted", c.name, c.word)
		}
	}
}
