package dramcache

import (
	"fmt"

	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

// TADsPerRow is the number of 72 B tag-and-data units per 8 KB DRAM row
// (Table II: "64B Blocks per 8KB Row — 112" for Alloy Cache).
const TADsPerRow = 112

// tadBytes is the size of one streamed tag-and-data unit: a 64 B block
// alloyed with its 8 B tag.
const tadBytes = 72

// Alloy implements the Alloy Cache of Qureshi & Loh [24]: a direct-mapped,
// block-based stacked-DRAM cache that merges each data block with its tag
// into a single TAD streamed in one DRAM access, plus the MAP-I miss
// predictor that moves the DRAM tag probe off the miss path.
type Alloy struct {
	stacked *dram.Controller
	offchip *dram.Controller
	mp      *predictor.MissPredictor

	// tads packs tag<<2 | state per direct-mapped slot, with
	// tag = block / numTADs: the slot fixes the rest of the block number,
	// so the 30 tag bits name every block below numTADs·2^30.
	tads    []uint32
	numTADs uint64

	st baseStats
}

const (
	tadInvalid uint32 = iota
	tadClean
	tadDirty
)

// maxTADTag bounds the tag a TAD entry holds beside its 2-bit state.
const maxTADTag = 1<<30 - 1

// NewAlloy builds an Alloy Cache with the given data capacity over the two
// DRAM parts. cores sizes the per-core miss-predictor tables.
//
// Each TAD keeps a 30-bit tag, which covers every block below
// numTADs·2^30: at least 7.7 TB of address space, since a cache has at
// least one 112-TAD row. Every workload and capture the simulator accepts
// stays below trace.MaxWorkingSetBytes (4 TB), so no tag can alias.
func NewAlloy(capacityBytes uint64, cores int, stacked, offchip *dram.Controller) (*Alloy, error) {
	rows := capacityBytes / mem.RowBytes
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: alloy capacity %d smaller than one row", capacityBytes)
	}
	return &Alloy{
		stacked: stacked,
		offchip: offchip,
		mp:      predictor.NewMissPredictor(cores, 256),
		tads:    make([]uint32, rows*TADsPerRow),
		numTADs: rows * TADsPerRow,
	}, nil
}

// Name implements Design.
func (d *Alloy) Name() string { return "alloy" }

// MissPredictor exposes the MAP-I predictor for Table V reporting.
func (d *Alloy) MissPredictor() *predictor.MissPredictor { return d.mp }

// tagSlot splits a block number into its TAD tag and direct-mapped slot
// with one division.
func (d *Alloy) tagSlot(block uint64) (tag uint32, slot uint64) {
	return uint32(block / d.numTADs), block % d.numTADs
}

// rowOf maps a TAD slot to its stacked-DRAM location.
func (d *Alloy) rowOf(slot uint64) (ch, bank int, row uint64) {
	return d.stacked.MapAddr(slot / TADsPerRow * mem.RowBytes)
}

// Access implements Design. The slot and its stacked-row mapping are pure
// address work, computed once up front and shared by every path below.
func (d *Alloy) Access(r Request) Response {
	tag, slot := d.tagSlot(r.Addr.Block())
	ch, bank, row := d.rowOf(slot)
	entry := d.tads[slot]
	present := entry>>2 == tag && entry&3 != tadInvalid

	if r.Write {
		return d.write(r, tag, slot, present, ch, bank, row)
	}
	d.st.reads++

	idx := d.mp.Index(r.PC)
	predMiss := d.mp.PredictMissIndexed(r.Core, idx)
	probeAt := r.At + d.mp.Latency()
	tad := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: tadBytes, At: probeAt})

	if present {
		d.st.readHits++
		d.mp.UpdateIndexed(r.Core, idx, predMiss, false)
		if predMiss {
			// False miss: the off-chip fetch was already launched in
			// parallel and its data is discarded — pure wasted traffic
			// and bandwidth occupancy (§II-A).
			d.offchip.Access(uint64(r.Addr), probeAt, mem.BlockSize, false)
			d.st.offReadBytes += mem.BlockSize
		}
		return Response{DoneAt: tad.Done, Hit: true}
	}

	// Miss path: a correctly predicted miss overlaps the off-chip fetch
	// with the (verification) probe; a mispredicted one serializes behind
	// the probe (§II-A).
	d.mp.UpdateIndexed(r.Core, idx, predMiss, true)
	d.st.triggerMisses++
	launchAt := tad.Done
	if predMiss {
		launchAt = probeAt
	}
	off := d.offchip.Access(uint64(r.Addr), launchAt, mem.BlockSize, false)
	d.st.offReadBytes += mem.BlockSize
	// The fill is charged at the demand timestamp; see Footprint.Access
	// for why future-dated background reservations would be wrong.
	d.fill(tag, slot, probeAt, false, ch, bank, row)
	return Response{DoneAt: off.Done, Hit: false}
}

// write absorbs an L2 dirty writeback. The full block arrives with the
// request, so allocation needs no off-chip fetch; a conflicting dirty
// victim is written back.
func (d *Alloy) write(r Request, tag uint32, slot uint64, present bool, ch, bank int, row uint64) Response {
	d.st.writes++
	res := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: tadBytes, Write: true, At: r.At})
	if !present {
		d.fill(tag, slot, r.At, true, ch, bank, row)
	} else {
		d.tads[slot] = tag<<2 | tadDirty
	}
	return Response{DoneAt: res.Done, Hit: present}
}

// fill installs the block with this tag into slot at cycle at (off the
// critical path), evicting and writing back any dirty conflicting TAD.
func (d *Alloy) fill(tag uint32, slot uint64, at uint64, dirty bool, ch, bank int, row uint64) {
	if old := d.tads[slot]; old&3 == tadDirty {
		victim := uint64(old>>2)*d.numTADs + slot
		d.offchip.Access(uint64(mem.BlockAddr(victim)), at, mem.BlockSize, true)
		d.st.offWriteBytes += mem.BlockSize
	}
	state := tadClean
	if dirty {
		state = tadDirty
	}
	d.tads[slot] = tag<<2 | state
	if !dirty {
		// The demand fill writes the TAD into the stacked row.
		d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: tadBytes, Write: true, At: at})
	}
}

// Contains reports (for tests) whether the block is cached.
func (d *Alloy) Contains(block uint64) bool {
	tag, slot := d.tagSlot(block)
	e := d.tads[slot]
	return e>>2 == tag && e&3 != tadInvalid
}

// Snapshot implements Design.
func (d *Alloy) Snapshot() Snapshot {
	s := d.st.snapshot(d.Name())
	mps := d.mp.Stats()
	acc := mps.Accuracy
	s.MP = &acc
	s.MPOverfetchPct = mps.OverfetchPercent()
	return s
}

// ResetStats implements Design.
func (d *Alloy) ResetStats() {
	d.st.reset()
	d.mp.ResetStats()
}
