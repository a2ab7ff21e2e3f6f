package unisoncache

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"unisoncache/internal/trace"
)

// Profile is the statistical description of a workload — the public mirror
// of the internal generator's parameters. Register one under a name with
// RegisterWorkload and every entry point that takes a workload name
// (Execute, Speedup, Plan, Sweep, SpeedupMany) accepts it exactly like the
// six built-ins. See DESIGN.md §7 for how each field shapes the generated
// access stream.
type Profile struct {
	// WorkingSetBytes is the touched data footprint; regions are drawn
	// from a population of WorkingSetBytes / 2 KB. The proportional-scaling
	// divisor (Run.ScaleDivisor) divides it at execution time, so declare
	// the full-scale footprint here. RegisterWorkload rejects more than
	// 4 TB (trace.MaxWorkingSetBytes).
	WorkingSetBytes uint64
	// ZipfTheta is the region-popularity skew (0 uniform, ~1 very hot).
	ZipfTheta float64
	// PCs is the function-pool size; footprints correlate with these.
	PCs int
	// PCZipfTheta skews which functions run most often.
	PCZipfTheta float64
	// DensityMin and DensityMax bound per-PC footprint density (fraction
	// of the 32 region blocks a visit touches).
	DensityMin, DensityMax float64
	// SingletonPCFrac is the fraction of PCs whose visits touch a single
	// block (pointer-chasing functions).
	SingletonPCFrac float64
	// PatternNoise is the per-block probability that one visit deviates
	// from the PC's base pattern — the irreducible footprint
	// mispredictability.
	PatternNoise float64
	// Scan selects contiguous-run footprints (column scans, postings
	// lists) instead of scattered ones (object graphs).
	Scan bool
	// AffinityClasses partitions the region space into code-affinity
	// classes; a function's visits stay within its own class except for an
	// AffinityEscape fraction. 0 disables partitioning.
	AffinityClasses int
	// AffinityEscape is the probability a visit leaves its class.
	AffinityEscape float64
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	// GapMean is the mean number of non-memory instructions between
	// consecutive memory accesses.
	GapMean float64
	// RepeatMean is the mean extra accesses to a touched block within a
	// visit (temporal reuse absorbed by the L1/L2).
	RepeatMean float64
}

// internal converts the public profile into the generator's form.
func (p Profile) internal(name string) *trace.Profile {
	return &trace.Profile{
		Name:            name,
		WorkingSetBytes: p.WorkingSetBytes,
		ZipfTheta:       p.ZipfTheta,
		PCs:             p.PCs,
		PCZipfTheta:     p.PCZipfTheta,
		DensityMin:      p.DensityMin,
		DensityMax:      p.DensityMax,
		SingletonPCFrac: p.SingletonPCFrac,
		PatternNoise:    p.PatternNoise,
		Scan:            p.Scan,
		AffinityClasses: p.AffinityClasses,
		AffinityEscape:  p.AffinityEscape,
		WriteFrac:       p.WriteFrac,
		GapMean:         p.GapMean,
		RepeatMean:      p.RepeatMean,
	}
}

// publicProfile is the inverse of Profile.internal.
func publicProfile(p *trace.Profile) Profile {
	return Profile{
		WorkingSetBytes: p.WorkingSetBytes,
		ZipfTheta:       p.ZipfTheta,
		PCs:             p.PCs,
		PCZipfTheta:     p.PCZipfTheta,
		DensityMin:      p.DensityMin,
		DensityMax:      p.DensityMax,
		SingletonPCFrac: p.SingletonPCFrac,
		PatternNoise:    p.PatternNoise,
		Scan:            p.Scan,
		AffinityClasses: p.AffinityClasses,
		AffinityEscape:  p.AffinityEscape,
		WriteFrac:       p.WriteFrac,
		GapMean:         p.GapMean,
		RepeatMean:      p.RepeatMean,
	}
}

var (
	workloadMu sync.RWMutex
	registered = map[string]*trace.Profile{}
)

// RegisterWorkload adds (or replaces) a user-defined workload under name.
// The profile is validated now, so a registered name never fails at
// execution time. Built-in names cannot be shadowed. Registration is safe
// for concurrent use, but the name's meaning must not change while a Plan
// referencing it is executing: the sweep engine memoizes results by Run
// configuration, and the workload name is part of that key.
func RegisterWorkload(name string, p Profile) error {
	if name == "" {
		return fmt.Errorf("unisoncache: empty workload name")
	}
	if _, builtin := trace.Profiles()[name]; builtin {
		return fmt.Errorf("unisoncache: workload %q would shadow a built-in", name)
	}
	prof := p.internal(name)
	if err := prof.Validate(); err != nil {
		return fmt.Errorf("unisoncache: workload %q: %w", name, err)
	}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	registered[name] = prof
	return nil
}

// Workloads lists every selectable workload name: the six built-ins in the
// paper's canonical figure order, then registered workloads sorted by name.
func Workloads() []string {
	names := trace.Names()
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	extra := make([]string, 0, len(registered))
	for n := range registered {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// WorkloadProfile returns the profile registered or built in under name.
func WorkloadProfile(name string) (Profile, bool) {
	p, ok := lookupProfile(name)
	if !ok {
		return Profile{}, false
	}
	return publicProfile(p), true
}

// lookupProfile resolves a workload name: built-ins first, then the
// registry. The returned profile is never mutated by callers (scaling
// copies it).
func lookupProfile(name string) (*trace.Profile, bool) {
	if p, ok := trace.Profiles()[name]; ok {
		return p, true
	}
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	p, ok := registered[name]
	return p, ok
}

// scaleProfile applies the proportional-scaling methodology to the working
// set (DESIGN.md §5), flooring at one region.
func scaleProfile(p *trace.Profile, divisor int) *trace.Profile {
	scaled := *p
	scaled.WorkingSetBytes = p.WorkingSetBytes / uint64(divisor)
	if scaled.WorkingSetBytes < trace.RegionBytes {
		scaled.WorkingSetBytes = trace.RegionBytes
	}
	return &scaled
}

// liveSources builds the per-core synthetic streams Execute(r) replays: the
// workload's profile, scaled by r.ScaleDivisor, seeded by (r.Seed, core).
func liveSources(r Run) ([]trace.Source, error) {
	if r.Cores <= 0 {
		return nil, fmt.Errorf("unisoncache: Cores must be positive, got %d", r.Cores)
	}
	prof, ok := lookupProfile(r.Workload)
	if !ok {
		return nil, fmt.Errorf("unisoncache: unknown workload %q (have %v)", r.Workload, Workloads())
	}
	scaled := scaleProfile(prof, r.ScaleDivisor)
	sources := make([]trace.Source, r.Cores)
	for i := range sources {
		s, err := trace.NewStream(scaled, r.Seed, i)
		if err != nil {
			return nil, err
		}
		sources[i] = s
	}
	return sources, nil
}

// RecordTrace captures to w, in the .utrace binary format, the exact
// per-core event streams Execute(r) would replay live: r.AccessesPerCore
// events on each of r.Cores cores. Executing the same Run with TracePath
// pointing at the capture yields Results bit-identical to the live run. The
// capture freezes the events themselves, so it outlives the workload's
// registration and reproduces runs across processes and machines.
func RecordTrace(r Run, w io.Writer) error {
	if r.TracePath != "" {
		return fmt.Errorf("unisoncache: cannot record from a replay (TracePath set)")
	}
	r = r.withDefaults()
	if r.ScaleDivisor < 1 {
		return fmt.Errorf("unisoncache: ScaleDivisor must be >= 1, got %d", r.ScaleDivisor)
	}
	sources, err := liveSources(r)
	if err != nil {
		return err
	}
	return trace.WriteTrace(w, trace.FileHeader{
		Profile:       r.Workload,
		Seed:          r.Seed,
		ScaleDivisor:  r.ScaleDivisor,
		Cores:         r.Cores,
		EventsPerCore: r.AccessesPerCore,
	}, sources)
}

// replaySources opens r.TracePath and returns the capture's per-core
// sources, reconciling the Run against the file header: zero-valued
// Workload, Seed, Cores and AccessesPerCore take the header's values;
// explicitly set ones must match (AccessesPerCore may replay a prefix),
// and the run's effective ScaleDivisor must equal the capture's.
func replaySources(r Run) (Run, []trace.Source, error) {
	f, err := os.Open(r.TracePath)
	if err != nil {
		return r, nil, fmt.Errorf("unisoncache: opening trace: %w", err)
	}
	defer f.Close()
	hdr, replays, err := trace.ReadTrace(f)
	if err != nil {
		return r, nil, err
	}
	if r.Workload == "" {
		r.Workload = hdr.Profile
	} else if r.Workload != hdr.Profile {
		return r, nil, fmt.Errorf("unisoncache: trace %s was captured from workload %q, not %q", r.TracePath, hdr.Profile, r.Workload)
	}
	if r.Seed == 0 {
		r.Seed = hdr.Seed
	} else if r.Seed != hdr.Seed {
		return r, nil, fmt.Errorf("unisoncache: trace %s was captured with seed %d, not %d", r.TracePath, hdr.Seed, r.Seed)
	}
	// The frozen events embed the capture-time divided working set, so a
	// replay under any other divisor would silently break the
	// capacity-to-working-set ratio. r.ScaleDivisor is already defaulted
	// (auto from Capacity) and validated >= 1 by Execute.
	if r.ScaleDivisor != hdr.ScaleDivisor {
		return r, nil, fmt.Errorf("unisoncache: trace %s was captured at scale divisor %d, run uses %d (match the capture's Capacity/ScaleDivisor)", r.TracePath, hdr.ScaleDivisor, r.ScaleDivisor)
	}
	if r.Cores == 0 {
		r.Cores = hdr.Cores
	} else if r.Cores != hdr.Cores {
		return r, nil, fmt.Errorf("unisoncache: trace %s holds %d cores, run wants %d", r.TracePath, hdr.Cores, r.Cores)
	}
	if r.AccessesPerCore == 0 {
		r.AccessesPerCore = hdr.EventsPerCore
	} else if r.AccessesPerCore > hdr.EventsPerCore {
		return r, nil, fmt.Errorf("unisoncache: trace %s holds %d events per core, run wants %d", r.TracePath, hdr.EventsPerCore, r.AccessesPerCore)
	}
	sources := make([]trace.Source, len(replays))
	for i, rs := range replays {
		sources[i] = rs
	}
	return r, sources, nil
}

// sources resolves the Run's event producers — a .utrace replay when
// TracePath is set, live synthetic streams otherwise — and returns the Run
// with any header-derived fields filled in.
func (r Run) sources() (Run, []trace.Source, error) {
	if r.TracePath != "" {
		return replaySources(r)
	}
	live, err := liveSources(r)
	return r, live, err
}
