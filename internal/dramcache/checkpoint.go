package dramcache

import (
	"fmt"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/predictor"
)

// This file serializes each design's complete mutable state into a
// checkpoint stream: page/TAD arrays, predictor tables (via the predictor
// package's own codecs) and the access counters. Geometry is owned by
// construction; LoadState rejects snapshots whose array sizes disagree.

func (b *baseStats) saveState(w *checkpoint.Writer) {
	w.U64(b.reads)
	w.U64(b.readHits)
	w.U64(b.writes)
	w.U64(b.triggerMisses)
	w.U64(b.underpredMisses)
	w.U64(b.singletonSkips)
	w.U64(b.offReadBytes)
	w.U64(b.offWriteBytes)
}

func (b *baseStats) loadState(r *checkpoint.Reader) {
	b.reads = r.U64()
	b.readHits = r.U64()
	b.writes = r.U64()
	b.triggerMisses = r.U64()
	b.underpredMisses = r.U64()
	b.singletonSkips = r.U64()
	b.offReadBytes = r.U64()
	b.offWriteBytes = r.U64()
}

// SaveState serializes every page's state and the LRU array.
func (t *PageTable) SaveState(w *checkpoint.Writer) {
	w.Section("dramcache.pagetable")
	w.U64(uint64(len(t.pages)))
	for i := range t.pages {
		p := &t.pages[i]
		w.U64(p.Tag)
		w.U32(uint32(p.Predicted))
		w.U32(uint32(p.Fetched))
		w.U32(uint32(p.Touched))
		w.U32(uint32(p.Dirty))
		w.U64(p.PC)
		w.U8(uint8(p.Off))
		w.Bool(p.Valid)
	}
	w.U8Slice(t.lru)
}

// LoadState restores state saved by SaveState into an identically sized
// table.
func (t *PageTable) LoadState(r *checkpoint.Reader) error {
	r.Section("dramcache.pagetable")
	if n := r.U64(); r.Err() == nil && n != uint64(len(t.pages)) {
		return fmt.Errorf("dramcache: snapshot has %d pages, table has %d", n, len(t.pages))
	}
	for i := range t.pages {
		p := &t.pages[i]
		p.Tag = r.U64()
		p.Predicted = predictor.Footprint(r.U32())
		p.Fetched = predictor.Footprint(r.U32())
		p.Touched = predictor.Footprint(r.U32())
		p.Dirty = predictor.Footprint(r.U32())
		p.PC = r.U64()
		p.Off = int8(r.U8())
		p.Valid = r.Bool()
	}
	r.U8SliceInto(t.lru)
	return r.Err()
}

// SaveState implements Design. Each slot is written as the full-block word
// block<<2 | state, 0 for an empty slot, so snapshots do not depend on how
// the live table packs its tags.
func (d *Alloy) SaveState(w *checkpoint.Writer) {
	w.Section("alloy")
	w.U64(uint64(len(d.tads)))
	for slot, e := range d.tads {
		var word uint64
		if e != 0 {
			word = (uint64(e>>2)*d.numTADs+uint64(slot))<<2 | uint64(e&3)
		}
		w.U64(word)
	}
	d.mp.SaveState(w)
	d.st.saveState(w)
}

// LoadState implements Design. It rejects a word the live table cannot
// hold: a nonzero word without a valid state, a block that does not map to
// its slot, or a tag wider than 30 bits.
func (d *Alloy) LoadState(r *checkpoint.Reader) error {
	r.Section("alloy")
	if n := r.U64(); r.Err() == nil && n != uint64(len(d.tads)) {
		return fmt.Errorf("dramcache: snapshot has %d TADs, alloy has %d", n, len(d.tads))
	}
	for slot := range d.tads {
		word := r.U64()
		block, state := word>>2, uint32(word&3)
		tag := block / d.numTADs
		if word != 0 && (state == tadInvalid || state > tadDirty || block-tag*d.numTADs != uint64(slot) || tag > maxTADTag) {
			return fmt.Errorf("dramcache: alloy slot %d: snapshot word %#x is not a valid TAD", slot, word)
		}
		d.tads[slot] = uint32(tag)<<2 | state
	}
	if err := d.mp.LoadState(r); err != nil {
		return err
	}
	d.st.loadState(r)
	return r.Err()
}

// SaveState implements Design.
func (d *Footprint) SaveState(w *checkpoint.Writer) {
	w.Section("footprint")
	d.fp.SaveState(w)
	d.single.SaveState(w)
	d.table.SaveState(w)
	d.st.saveState(w)
}

// LoadState implements Design.
func (d *Footprint) LoadState(r *checkpoint.Reader) error {
	r.Section("footprint")
	if err := d.fp.LoadState(r); err != nil {
		return err
	}
	if err := d.single.LoadState(r); err != nil {
		return err
	}
	if err := d.table.LoadState(r); err != nil {
		return err
	}
	d.st.loadState(r)
	return r.Err()
}

// SaveState implements Design.
func (d *LohHill) SaveState(w *checkpoint.Writer) {
	w.Section("lohhill")
	d.table.SaveState(w)
	d.st.saveState(w)
}

// LoadState implements Design.
func (d *LohHill) LoadState(r *checkpoint.Reader) error {
	r.Section("lohhill")
	if err := d.table.LoadState(r); err != nil {
		return err
	}
	d.st.loadState(r)
	return r.Err()
}

// SaveState implements Design.
func (d *Ideal) SaveState(w *checkpoint.Writer) {
	w.Section("ideal")
	d.st.saveState(w)
}

// LoadState implements Design.
func (d *Ideal) LoadState(r *checkpoint.Reader) error {
	r.Section("ideal")
	d.st.loadState(r)
	return r.Err()
}

// SaveState implements Design.
func (d *None) SaveState(w *checkpoint.Writer) {
	w.Section("none")
	d.st.saveState(w)
}

// LoadState implements Design.
func (d *None) LoadState(r *checkpoint.Reader) error {
	r.Section("none")
	d.st.loadState(r)
	return r.Err()
}
