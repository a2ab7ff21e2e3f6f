package trace

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 6.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(mean))
	}
	got := sum / n
	if math.Abs(got-mean) > 0.15 {
		t.Errorf("geometric mean = %v, want ~%v", got, mean)
	}
	if r.Geometric(0) != 0 || r.Geometric(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestZipfRange(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.72, 1.0, 1.2} {
		z := NewZipf(1000, theta)
		r := NewRNG(3)
		for i := 0; i < 10000; i++ {
			v := z.Sample(r)
			if v >= 1000 {
				t.Fatalf("theta=%v: sample %d out of range", theta, v)
			}
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher theta concentrates mass on low ranks.
	share := func(theta float64) float64 {
		z := NewZipf(100000, theta)
		r := NewRNG(5)
		hot := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Sample(r) < 1000 { // top 1%
				hot++
			}
		}
		return float64(hot) / n
	}
	s0, s5, s9 := share(0), share(0.5), share(0.95)
	if !(s0 < s5 && s5 < s9) {
		t.Errorf("skew not monotone: %.3f %.3f %.3f", s0, s5, s9)
	}
	if s0 > 0.03 {
		t.Errorf("uniform top-1%% share = %.3f, want ~0.01", s0)
	}
	if s9 < 0.3 {
		t.Errorf("theta=0.95 top-1%% share = %.3f, want heavy", s9)
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0,..) did not panic")
		}
	}()
	NewZipf(0, 0.5)
}

func TestPermIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 100, 1000, 4097} {
		p := NewPerm(n, 99)
		seen := make(map[uint64]bool, n)
		for x := uint64(0); x < n; x++ {
			y := p.Apply(x)
			if y >= n {
				t.Fatalf("n=%d: Apply(%d) = %d out of range", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d: collision at %d", n, y)
			}
			seen[y] = true
		}
	}
}

func TestPermDeterministicAndSeeded(t *testing.T) {
	p1 := NewPerm(1000, 1)
	p2 := NewPerm(1000, 1)
	p3 := NewPerm(1000, 2)
	same := true
	for x := uint64(0); x < 100; x++ {
		if p1.Apply(x) != p2.Apply(x) {
			t.Fatal("same seed differs")
		}
		if p1.Apply(x) != p3.Apply(x) {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestPermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Apply did not panic")
		}
	}()
	NewPerm(10, 1).Apply(10)
}

func TestProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(ps))
	}
	for _, name := range Names() {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing workload %q", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// TPC-H must dwarf the others (>100GB dataset in the paper).
	if ps["tpch"].WorkingSetBytes <= 4*ps["web-search"].WorkingSetBytes {
		t.Error("tpch working set should be far larger than CloudSuite workloads")
	}
	// Data Analytics must have the lowest spatial locality.
	if ps["data-analytics"].DensityMax >= ps["web-search"].DensityMin {
		t.Error("data-analytics should be sparser than web-search")
	}
}

func TestProfileValidateRejects(t *testing.T) {
	bad := []*Profile{
		{Name: "tiny", WorkingSetBytes: 100, PCs: 1, DensityMin: 0.1, DensityMax: 0.5},
		{Name: "nopc", WorkingSetBytes: 1 << 20, PCs: 0, DensityMin: 0.1, DensityMax: 0.5},
		{Name: "dens", WorkingSetBytes: 1 << 20, PCs: 1, DensityMin: 0.6, DensityMax: 0.5},
		{Name: "noise", WorkingSetBytes: 1 << 20, PCs: 1, DensityMin: 0.1, DensityMax: 0.5, PatternNoise: 0.9},
		{Name: "wf", WorkingSetBytes: 1 << 20, PCs: 1, DensityMin: 0.1, DensityMax: 0.5, WriteFrac: 1.5},
		{Name: "huge", WorkingSetBytes: MaxWorkingSetBytes + RegionBytes, PCs: 1, DensityMin: 0.1, DensityMax: 0.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", p.Name)
		}
	}
	limit := &Profile{Name: "limit", WorkingSetBytes: MaxWorkingSetBytes, PCs: 1, DensityMin: 0.1, DensityMax: 0.5}
	if err := limit.Validate(); err != nil {
		t.Errorf("working set at the limit rejected: %v", err)
	}
}

// TestEventSize pins the field order that packs Write beside Gap: every
// core's prefetch slab holds Events, so the 8 bytes per event a looser
// order pads in show up in every run's heap.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("Event is %d bytes, want 24", got)
	}
}

func newTestStream(t *testing.T, name string, core int) *Stream {
	t.Helper()
	s, err := NewStream(Profiles()[name], 1234, core)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamDeterminism(t *testing.T) {
	a := newTestStream(t, "web-search", 0)
	b := newTestStream(t, "web-search", 0)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with identical seeds diverged")
		}
	}
}

func TestStreamCoresDiffer(t *testing.T) {
	a := newTestStream(t, "web-search", 0)
	b := newTestStream(t, "web-search", 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 50 {
		t.Error("cores look identical")
	}
}

func TestStreamAddressesInWorkingSet(t *testing.T) {
	p := Profiles()["data-analytics"]
	s := newTestStream(t, "data-analytics", 0)
	for i := 0; i < 100000; i++ {
		ev := s.Next()
		if uint64(ev.Addr) >= p.WorkingSetBytes {
			t.Fatalf("address %d beyond working set %d", ev.Addr, p.WorkingSetBytes)
		}
		if uint64(ev.Addr)%64 != 0 {
			t.Fatalf("address %d not block-aligned", ev.Addr)
		}
	}
}

func TestStreamSpatialLocalityOrdering(t *testing.T) {
	// Web Search visits must touch far more blocks per region visit than
	// Data Analytics — the paper's spatial-locality ordering.
	meanVisit := func(name string) float64 {
		s := newTestStream(t, name, 0)
		visits := 0
		blocks := map[uint64]bool{}
		var cur uint64 = ^uint64(0)
		total := 0
		for i := 0; i < 50000; i++ {
			ev := s.Next()
			r := uint64(ev.Addr) / RegionBytes
			if r != cur {
				visits++
				cur = r
				total += len(blocks)
				blocks = map[uint64]bool{}
			}
			blocks[uint64(ev.Addr)>>6] = true
		}
		return float64(total) / float64(visits)
	}
	da := meanVisit("data-analytics")
	ws := meanVisit("web-search")
	if da >= ws/2 {
		t.Errorf("blocks/visit: data-analytics %.1f vs web-search %.1f; want clear separation", da, ws)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	s := newTestStream(t, "data-serving", 0)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	want := Profiles()["data-serving"].WriteFrac
	if math.Abs(got-want) > 0.02 {
		t.Errorf("write fraction = %.3f, want ~%.2f", got, want)
	}
}

func TestStreamGapMean(t *testing.T) {
	s := newTestStream(t, "web-serving", 0)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(s.Next().Gap)
	}
	got := sum / n
	want := Profiles()["web-serving"].GapMean
	if math.Abs(got-want) > 0.5 {
		t.Errorf("gap mean = %.2f, want ~%.1f", got, want)
	}
}

func TestStreamPCFootprintCorrelation(t *testing.T) {
	// The core property the predictors exploit: two visits by the same PC
	// to different regions touch nearly the same relative blocks.
	s := newTestStream(t, "web-search", 0)
	patterns := map[uint64][]uint32{} // pc -> visit patterns
	var curPC uint64
	var curRegion uint64 = ^uint64(0)
	var pat uint32
	flush := func() {
		if curRegion != ^uint64(0) && pat != 0 {
			patterns[curPC] = append(patterns[curPC], pat)
		}
	}
	for i := 0; i < 200000; i++ {
		ev := s.Next()
		r := uint64(ev.Addr) / RegionBytes
		if r != curRegion {
			flush()
			curRegion, curPC, pat = r, ev.PC, 0
		}
		pat |= 1 << ((uint64(ev.Addr) >> 6) % RegionBlocks)
	}
	flush()
	// Compare pattern pairs within PCs: Jaccard similarity should be high.
	simSum, pairs := 0.0, 0
	for _, ps := range patterns {
		if len(ps) < 2 {
			continue
		}
		for i := 1; i < len(ps) && i < 10; i++ {
			inter := popcount(ps[0] & ps[i])
			union := popcount(ps[0] | ps[i])
			if union > 0 {
				simSum += float64(inter) / float64(union)
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Skip("no repeated PCs observed")
	}
	if sim := simSum / float64(pairs); sim < 0.7 {
		t.Errorf("intra-PC footprint similarity = %.2f, want >= 0.7 (web-search is highly regular)", sim)
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x > 0; x &= x - 1 {
		n++
	}
	return n
}

func TestStreamEventInvariantsProperty(t *testing.T) {
	s := newTestStream(t, "software-testing", 3)
	f := func(steps uint8) bool {
		for i := 0; i < int(steps); i++ {
			ev := s.Next()
			if uint64(ev.Addr)%64 != 0 || ev.PC == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamNext(b *testing.B) {
	s, err := NewStream(Profiles()["web-serving"], 9, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
