package trace

import (
	"bytes"
	"fmt"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/mem"
)

// eagerStream is the reference generator: it materializes each visit whole
// into a buffer and then hands the buffer out, which is how Stream worked
// before it wrote events straight into the caller's slab. It shares
// Stream's pure helpers (function, region and pattern choice) and RNG
// discipline, and keeps its own copy of the per-event loop and the
// checkpoint format, so the equivalence wall below pins Stream's event
// order, RNG consumption and snapshot bytes to it.
type eagerStream struct {
	s       *Stream
	pending []Event
	next    int
}

func newEagerStream(tb testing.TB, p *Profile, seed uint64, core int) *eagerStream {
	tb.Helper()
	s, err := NewStream(p, seed, core)
	if err != nil {
		tb.Fatal(err)
	}
	return &eagerStream{s: s}
}

func (e *eagerStream) Next() Event {
	for e.next >= len(e.pending) {
		e.generateVisit()
	}
	ev := e.pending[e.next]
	e.next++
	return ev
}

func (e *eagerStream) generateVisit() {
	s := e.s
	e.pending = e.pending[:0]
	e.next = 0

	pcIdx := s.zipfPC.Sample(s.rng)
	pc := pcValue(pcIdx)
	if s.prof.Scan {
		e.generateScan(pcIdx, pc)
		return
	}
	region := s.pickRegion(pcIdx)
	base := s.basePattern(pcIdx)
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

	regionBase := region * RegionBlocks
	for b := 0; b < RegionBlocks; b++ {
		if pattern&(1<<b) == 0 {
			continue
		}
		addr := mem.BlockAddr(regionBase + uint64(b))
		repeats := 1 + s.rng.geometricTab(s.repeatTab)
		for rep := 0; rep < repeats; rep++ {
			e.pending = append(e.pending, Event{
				Gap:   uint32(s.rng.geometricTab(s.gapTab)),
				Addr:  addr,
				PC:    pc,
				Write: s.rng.Bernoulli(s.prof.WriteFrac),
			})
		}
	}
}

func (e *eagerStream) generateScan(pcIdx, pc uint64) {
	s := e.s
	n := s.prof.Regions()
	base := s.pickRegion(pcIdx)
	density, _ := s.pcDensity(pcIdx)
	regions := 3 + int(mem.Mix64(pcIdx^0x5cab)%8)
	headTrim := int(mem.Mix64(pcIdx^0xeadd) % (RegionBlocks / 2))
	tailTrim := 0
	if s.prof.PatternNoise > 0 && s.rng.Bernoulli(s.prof.PatternNoise*8) {
		headTrim += s.rng.Intn(3) - 1
	}
	if density < 0.5 && regions > 3 {
		regions = 3
	}
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	headTrim = clamp(headTrim, 0, RegionBlocks-1)
	tailTrim = clamp(tailTrim, 0, RegionBlocks-1)
	for i := 0; i < regions; i++ {
		region := base + uint64(i)
		if region >= n {
			break
		}
		lo, hi := 0, RegionBlocks
		if i == 0 {
			lo = headTrim
		}
		if i == regions-1 {
			hi = RegionBlocks - tailTrim
		}
		if hi <= lo {
			continue
		}
		e.emitRange(region, lo, hi, pc)
	}
	if len(e.pending) == 0 {
		e.emitRange(base, 0, RegionBlocks, pc)
	}
}

func (e *eagerStream) emitRange(region uint64, lo, hi int, pc uint64) {
	s := e.s
	regionBase := region * RegionBlocks
	for b := lo; b < hi; b++ {
		addr := mem.BlockAddr(regionBase + uint64(b))
		repeats := 1 + s.rng.geometricTab(s.repeatTab)
		for rep := 0; rep < repeats; rep++ {
			e.pending = append(e.pending, Event{
				Gap:   uint32(s.rng.geometricTab(s.gapTab)),
				Addr:  addr,
				PC:    pc,
				Write: s.rng.Bernoulli(s.prof.WriteFrac),
			})
		}
	}
}

func (e *eagerStream) SaveState(w *checkpoint.Writer) {
	w.Section("trace.stream")
	w.U64(e.s.rng.state)
	rest := e.pending[e.next:]
	w.U64(uint64(len(rest)))
	for _, ev := range rest {
		w.U32(ev.Gap)
		w.U64(uint64(ev.Addr))
		w.U64(ev.PC)
		w.Bool(ev.Write)
	}
}

// customProfile is a workload of the kind RegisterWorkload accepts that no
// preset resembles: a noiseless scan with no repeats and no gaps (both
// geometric tables nil) over a 41-region population, so sweeps run off
// the end of the population and are cut short there.
func customProfile() *Profile {
	return &Profile{
		Name:            "custom-scan",
		Scan:            true,
		WorkingSetBytes: 41 * RegionBytes,
		ZipfTheta:       0.9,
		PCs:             37,
		PCZipfTheta:     0.3,
		DensityMin:      0.2,
		DensityMax:      1,
		SingletonPCFrac: 0.1,
		WriteFrac:       0.5,
	}
}

// equivalenceProfiles lists every preset plus customProfile, in a fixed
// order.
func equivalenceProfiles() []*Profile {
	all := Profiles()
	list := make([]*Profile, 0, len(all)+1)
	for _, name := range []string{"data-analytics", "data-serving", "software-testing", "web-search", "web-serving", "tpch"} {
		p, ok := all[name]
		if !ok {
			panic("missing preset " + name)
		}
		list = append(list, p)
	}
	if len(list) != len(all) {
		panic(fmt.Sprintf("equivalenceProfiles lists %d presets, Profiles has %d", len(list), len(all)))
	}
	return append(list, customProfile())
}

// TestStreamMatchesEagerReference is the event half of the equivalence
// wall: for every preset and the custom profile, Stream pulled in batches
// of each size — and with Next and NextBatch interleaved — yields exactly
// the eager reference's events.
func TestStreamMatchesEagerReference(t *testing.T) {
	const total = 30_000
	for _, p := range equivalenceProfiles() {
		ref := newEagerStream(t, p, 17, 5)
		want := make([]Event, total)
		for i := range want {
			want[i] = ref.Next()
		}
		for _, size := range []int{1, 2, 7, 97, 256, 1009} {
			s, err := NewStream(p, 17, 5)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]Event, total)
			for n := 0; n < total; {
				k := min(size, total-n)
				if m := s.NextBatch(got[n : n+k]); m != k {
					t.Fatalf("%s: NextBatch(%d) returned %d", p.Name, k, m)
				}
				n += k
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s batch %d: event %d is %+v, reference %+v", p.Name, size, i, got[i], want[i])
				}
			}
		}
		s, err := NewStream(p, 17, 5)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Event, 97)
		var got []Event
		for i := 0; len(got) < total; i++ {
			got = append(got, s.Next())
			k := min(1+i%len(buf), total-len(got))
			s.NextBatch(buf[:k])
			got = append(got, buf[:k]...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s interleaved: event %d is %+v, reference %+v", p.Name, i, got[i], want[i])
			}
		}
	}
}

// saveBytes serializes src's cursor.
func saveBytes(tb testing.TB, src interface{ SaveState(*checkpoint.Writer) }) []byte {
	tb.Helper()
	w := checkpoint.NewWriter()
	src.SaveState(w)
	if err := w.Err(); err != nil {
		tb.Fatal(err)
	}
	return w.Bytes()
}

// TestStreamCheckpointMatchesEagerReference is the checkpoint half of the
// wall. Stepping one event at a time through the first 200 visits of every
// preset and the custom profile, Stream's snapshot must equal the eager
// reference's byte for byte at every offset — visit boundaries, block
// boundaries and mid-block alike. Each snapshot is then restored into a
// fresh Stream, which must re-save the same bytes and continue with the
// reference's next events, pulled in ragged batches that straddle the
// restored remainder and the visits after it.
func TestStreamCheckpointMatchesEagerReference(t *testing.T) {
	visits := 200
	if testing.Short() {
		visits = 20
	}
	for _, p := range equivalenceProfiles() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			checkpointMatchesEager(t, p, visits)
		})
	}
}

func checkpointMatchesEager(t *testing.T, p *Profile, visits int) {
	const follow = 64
	sizes := []int{1, 2, 7, 97}
	// The reference's own continuation, long enough for every offset plus
	// the follow-on window.
	ref := newEagerStream(t, p, 23, 2)
	var want []Event
	for seen := 0; seen < visits; {
		want = append(want, ref.Next())
		if ref.next == len(ref.pending) {
			seen++
		}
	}
	offsets := len(want)
	for i := 0; i < follow; i++ {
		want = append(want, ref.Next())
	}

	ref = newEagerStream(t, p, 23, 2)
	s, err := NewStream(p, 23, 2)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewStream(p, 23, 2)
	if err != nil {
		t.Fatal(err)
	}
	midBlock := 0
	buf := make([]Event, follow)
	for off := 0; off < offsets; off++ {
		snap := saveBytes(t, s)
		if refSnap := saveBytes(t, ref); !bytes.Equal(snap, refSnap) {
			t.Fatalf("offset %d: snapshot differs from the reference's\n got %x\nwant %x", off, snap, refSnap)
		}
		if s.cur.reps > 0 {
			midBlock++
		}

		if err := restored.LoadState(checkpoint.NewReader(snap)); err != nil {
			t.Fatalf("offset %d: LoadState: %v", off, err)
		}
		if again := saveBytes(t, restored); !bytes.Equal(again, snap) {
			t.Fatalf("offset %d: restored stream re-saves different bytes", off)
		}
		for n := 0; n < follow; {
			k := min(sizes[(off+n)%len(sizes)], follow-n)
			restored.NextBatch(buf[n : n+k])
			n += k
		}
		for i, ev := range buf {
			if ev != want[off+i] {
				t.Fatalf("offset %d: restored event %d is %+v, reference %+v", off, i, ev, want[off+i])
			}
		}

		if ev, refEv := s.Next(), ref.Next(); ev != refEv || ev != want[off] {
			t.Fatalf("offset %d: event %+v, reference %+v", off, ev, refEv)
		}
	}
	if midBlock == 0 && p.RepeatMean > 0 {
		t.Error("no snapshot was taken mid-block")
	}
}
