package trace

import (
	"math/bits"

	"unisoncache/internal/mem"
)

// Event is one memory reference with its leading instruction gap. The
// fields are ordered so Write packs beside Gap: an Event is 24 bytes, not
// 32, in every per-core slab.
type Event struct {
	// Gap is the number of non-memory instructions retired before this
	// access.
	Gap uint32
	// Write marks a store.
	Write bool
	// Addr is the physical byte address (block-aligned).
	Addr mem.Addr
	// PC identifies the instruction (the visit's function).
	PC uint64
}

// Stream produces the access stream of one core. Streams sharing a Profile
// and base seed model threads of one application over shared data: they
// draw from the same region population and function pool but interleave
// independently.
type Stream struct {
	prof   *Profile
	rng    *RNG
	zipfR  *Zipf
	zipfPC *Zipf
	perm   *Perm

	// Precomputed geometric quantile tables (see geomTable): the
	// distribution depends only on the profile, so the per-event sampling
	// path reduces to one table lookup for almost every draw — with the
	// exact log1p fallback guaranteeing bit-identical values.
	gapTab, repeatTab *geomTable

	// cur is the visit being emitted.
	cur visit
	// restore holds the unconsumed events of the visit a snapshot was
	// taken in; they are emitted before anything else. It is nil except
	// between a LoadState and the first pull past those events.
	restore []Event
}

// visit is the emission cursor of one region visit. generateVisit makes
// the visit's own draws (function, region, pattern) and sets the cursor;
// the per-event draws are made as events are written, in the order an
// eager generator would make them: a block's repeat count when the block
// starts, then a gap and a write flag per event.
type visit struct {
	pc     uint64
	region uint64   // region being emitted
	last   uint64   // the visit's last region: a scan covers region..last
	mask   uint32   // blocks of region not yet started
	addr   mem.Addr // the current block's address
	reps   int      // events still owed to the current block
}

// fullRegion is the block mask of a whole region.
const fullRegion = uint32(1<<RegionBlocks - 1)

// NewStream builds the access stream for one core. All cores of a run share
// baseSeed (the region permutation key) and differ by core index.
func NewStream(p *Profile, baseSeed uint64, core int) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Stream{
		prof:      p,
		rng:       NewRNG(baseSeed*0x9e3779b97f4a7c15 + uint64(core)*0x100000001b3 + 1),
		zipfR:     NewZipf(p.Regions(), p.ZipfTheta),
		zipfPC:    NewZipf(uint64(p.PCs), p.PCZipfTheta),
		perm:      NewPerm(p.Regions(), baseSeed),
		gapTab:    geomTableFor(geomDenom(p.GapMean)),
		repeatTab: geomTableFor(geomDenom(p.RepeatMean)),
	}, nil
}

// jitterRun grows or shrinks a contiguous run pattern by one block at a
// random end, modelling scans that stop early or read ahead.
func jitterRun(pat uint32, rng *RNG) uint32 {
	if pat == 0 || pat == ^uint32(0)>>(32-RegionBlocks) {
		return pat
	}
	grow := rng.Bernoulli(0.5)
	for b := 0; b < RegionBlocks; b++ {
		cur := pat&(1<<b) != 0
		nxt := pat&(1<<((b+1)%RegionBlocks)) != 0
		if grow && !cur && nxt {
			return pat | 1<<b // extend at the head
		}
		if !grow && cur && !nxt {
			return pat &^ (1 << b) // trim at the tail
		}
	}
	return pat
}

// patternBounds returns the inclusive block range covered by the pattern,
// widened by one block on each side (clipped to the region).
func patternBounds(pat uint32) (lo, hi int) {
	lo, hi = 0, RegionBlocks-1
	for b := 0; b < RegionBlocks; b++ {
		if pat&(1<<b) != 0 {
			lo = b
			break
		}
	}
	for b := RegionBlocks - 1; b >= 0; b-- {
		if pat&(1<<b) != 0 {
			hi = b
			break
		}
	}
	if lo > 0 {
		lo--
	}
	if hi < RegionBlocks-1 {
		hi++
	}
	return lo, hi
}

// pcValue maps a function index to a stable, spread-out PC value.
func pcValue(pcIdx uint64) uint64 {
	return 0x400000 + mem.Mix64(pcIdx)%(1<<20)*4
}

// pcDensity derives the deterministic footprint density class of a
// function: a SingletonPCFrac share of functions touch one block; the rest
// get a density uniform in [DensityMin, DensityMax].
func (s *Stream) pcDensity(pcIdx uint64) (density float64, singleton bool) {
	h := mem.Mix64(pcIdx ^ 0xabcdef)
	u := float64(h>>11) / (1 << 53)
	if u < s.prof.SingletonPCFrac {
		return 0, true
	}
	u2 := float64(mem.Mix64(h)>>11) / (1 << 53)
	return s.prof.DensityMin + u2*(s.prof.DensityMax-s.prof.DensityMin), false
}

// basePattern derives the function's canonical footprint over a region's 32
// blocks. It is a pure function of the PC, which is what makes footprints
// learnable. All footprints are translation-invariant shapes — contiguous
// runs for scan workloads (column scans, postings lists), strided walks for
// object traversals: the same shape recurs at whatever alignment the
// visited region imposes, which is precisely why the (PC, offset) trigger
// pair predicts footprints across page alignments [10],[27]. Purely random
// scatter would lack this property — and so do few real access patterns.
func (s *Stream) basePattern(pcIdx uint64) uint32 {
	density, singleton := s.pcDensity(pcIdx)
	if singleton {
		return 1 << (mem.Mix64(pcIdx^0x5151) % RegionBlocks)
	}
	count, stride, start := s.patternShape(pcIdx, density)
	var pat uint32
	for i := 0; i < count; i++ {
		pat |= 1 << (start + i*stride)
	}
	return pat
}

// patternShape derives the run parameters of a function's base pattern:
// scans are long contiguous reads; non-scan functions touch short object
// runs. density controls how many blocks the walk touches.
func (s *Stream) patternShape(pcIdx uint64, density float64) (count, stride, start int) {
	stride = 1
	count = int(density*RegionBlocks + 0.5)
	if count < 1 {
		count = 1
	}
	if maxCount := (RegionBlocks-1)/stride + 1; count > maxCount {
		count = maxCount
	}
	span := (count-1)*stride + 1
	start = int(mem.Mix64(pcIdx^0x9d9d) % uint64(RegionBlocks-span+1))
	return count, stride, start
}

// pickRegion draws the visit's region under hierarchical popularity: each
// function owns a contiguous band of the popularity ranking. Popular
// functions own small, hot bands (lookup code over hot structures); rare
// functions own wide, cold bands (scan code sweeping the heap). Band
// widths grow cubically with function rank, so per-function traffic is
// strongly hit- or miss-dominated — the bimodality instruction-indexed
// predictors such as MAP-I exploit — and footprint residency unions stay
// within correlated code (except for the escape fraction).
func (s *Stream) pickRegion(pcIdx uint64) uint64 {
	n := s.prof.Regions()
	c := uint64(s.prof.AffinityClasses)
	if c <= 1 || c > n {
		return s.perm.Apply(s.zipfR.Sample(s.rng))
	}
	class := pcIdx % c
	if s.rng.Bernoulli(s.prof.AffinityEscape) {
		class = s.rng.Uint64() % c
	}
	lo, hi := s.bandBounds(class, c, n)
	slot := lo + s.rng.Uint64()%(hi-lo)
	return s.perm.Apply(slot)
}

// bandBounds returns class k's half-open rank range under a sixth-power
// band-width law: boundary(k) = n * (k/c)^6. The steep law leaves few
// fractionally-resident middle classes: most functions are either fully
// cache-resident (hits) or sweeping far more data than any cache holds
// (misses), matching the bimodal hit/miss behaviour of real server code.
func (s *Stream) bandBounds(k, c, n uint64) (lo, hi uint64) {
	bound := func(i uint64) uint64 {
		f := float64(i) / float64(c)
		f3 := f * f * f
		return uint64(float64(n) * f3 * f3)
	}
	lo, hi = bound(k), bound(k+1)
	if hi <= lo {
		hi = lo + 1
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		lo = hi - 1
	}
	return lo, hi
}

// Next returns the next access event, generating a fresh region visit when
// the current one is exhausted.
func (s *Stream) Next() Event {
	var ev [1]Event
	s.NextBatch(ev[:])
	return ev[0]
}

// NextBatch implements Batcher: it fills dst with the same events the same
// number of Next calls would return, writing each event straight into dst.
func (s *Stream) NextBatch(dst []Event) int {
	n := 0
	if len(s.restore) > 0 {
		n = copy(dst, s.restore)
		s.restore = s.restore[n:]
		if len(s.restore) == 0 {
			s.restore = nil
		}
	}
	for {
		n += s.emit(&s.cur, s.rng, dst[n:])
		if n == len(dst) {
			return n
		}
		s.generateVisit()
	}
}

// emit writes v's next events into dst, drawing from rng, and returns how
// many it wrote: len(dst), or fewer when the visit ran out. The cursor and
// the RNG state are kept in locals for the loop and stored back once, and
// the geometric draws go straight to their tables (geometricTab's steps,
// inlined), so the per-event path makes no call outside the rare buckets
// that need the exact formula.
func (s *Stream) emit(v *visit, rng *RNG, dst []Event) int {
	gapTab, repeatTab, writeFrac := s.gapTab, s.repeatTab, s.prof.WriteFrac
	pc, region, last, mask, addr, reps := v.pc, v.region, v.last, v.mask, v.addr, v.reps
	r := *rng
	n := 0
	for n < len(dst) {
		if reps == 0 {
			if mask == 0 {
				if region == last {
					break
				}
				region++
				mask = fullRegion
			}
			b := bits.TrailingZeros32(mask)
			mask &= mask - 1
			addr = mem.BlockAddr(region*RegionBlocks + uint64(b))
			reps = 1
			if repeatTab != nil {
				reps += repeatTab.at(r.Uint64() >> 11)
			}
		}
		out := dst[n:min(n+reps, len(dst))]
		for i := range out {
			gap := 0
			if gapTab != nil {
				gap = gapTab.at(r.Uint64() >> 11)
			}
			out[i] = Event{
				Gap:   uint32(gap),
				Write: r.Bernoulli(writeFrac),
				Addr:  addr,
				PC:    pc,
			}
		}
		n += len(out)
		reps -= len(out)
	}
	*rng = r
	v.region, v.mask, v.addr, v.reps = region, mask, addr, reps
	return n
}

// generateVisit starts one visit: pick a function, then either sweep
// several physically consecutive regions (scan workloads) or touch one
// region with the function's pattern. emit then produces the accesses in
// ascending block order with per-block repeats and instruction gaps.
func (s *Stream) generateVisit() {
	pcIdx := s.zipfPC.Sample(s.rng)
	pc := pcValue(pcIdx)
	if s.prof.Scan {
		s.generateScan(pcIdx, pc)
		return
	}
	region := s.pickRegion(pcIdx)
	base := s.basePattern(pcIdx)

	// Per-visit noise: walks stop early or read ahead (boundary jitter),
	// plus occasional extra touches adjacent to the pattern. Deviations
	// cluster around the data actually accessed — uniform random flips
	// would keep inventing brand-new trigger offsets, which neither real
	// programs nor this generator do.
	pattern := base
	if s.prof.PatternNoise > 0 {
		for i := 0; i < 2; i++ {
			if s.rng.Bernoulli(s.prof.PatternNoise * RegionBlocks / 4) {
				pattern = jitterRun(pattern, s.rng)
			}
		}
		lo, hi := patternBounds(base)
		for b := lo; b <= hi; b++ {
			if s.rng.Bernoulli(s.prof.PatternNoise / 2) {
				pattern ^= 1 << b
			}
		}
	}
	if pattern == 0 {
		pattern = base
	}
	s.cur = visit{pc: pc, region: region, last: region, mask: pattern}
}

// generateScan starts one multi-region sequential sweep: scans cover 3-10
// physically consecutive 2 KB regions (6-20 KB), fully reading interior
// regions and partially reading the first one. Long physically contiguous
// sweeps are what make scan footprints page-size-agnostic: whatever page
// granularity a cache uses, its interior pages are touched end to end, so
// the (PC, offset) trigger predicts them exactly.
func (s *Stream) generateScan(pcIdx, pc uint64) {
	base := s.pickRegion(pcIdx)
	density, _ := s.pcDensity(pcIdx)
	regions := 3 + mem.Mix64(pcIdx^0x5cab)%8
	// The head trim derives from the function (stable) plus jitter.
	// Scans start part-way into their first allocation unit but end at a
	// region boundary (column chunks and postings lists are allocated in
	// region-sized units).
	headTrim := int(mem.Mix64(pcIdx^0xeadd) % (RegionBlocks / 2))
	if s.prof.PatternNoise > 0 && s.rng.Bernoulli(s.prof.PatternNoise*8) {
		headTrim += s.rng.Intn(3) - 1
	}
	// density scales the sweep: sparse scan functions make short sweeps.
	if density < 0.5 && regions > 3 {
		regions = 3
	}
	// headTrim stays below RegionBlocks and base below the population, so
	// the first region always has blocks to emit.
	headTrim = min(max(headTrim, 0), RegionBlocks-1)
	s.cur = visit{
		pc:     pc,
		region: base,
		last:   min(base+regions, s.prof.Regions()) - 1,
		mask:   fullRegion &^ (1<<headTrim - 1),
	}
}
