package main

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	uc "unisoncache"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // descending: the helper must sort
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, err := percentile(samples, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v = %v, %v; want %v", tc.p*100, got, err, tc.want)
		}
	}
	if samples[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		_, err := percentile(make([]float64, tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d p=%v: err %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

// fakeClock advances only when slept or when a request takes time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	// 1000 requests/s for 6 ms: due at 0..5 ms. Request 0 stalls 2.5 ms,
	// request 5 fails; the rest take 0.5 ms.
	service := []time.Duration{2500 * time.Microsecond, ms / 2, ms / 2, ms / 2, ms / 2, ms / 2}
	st := openLoop(clk, 1000, 0, 6*ms, func(i int) error {
		clk.t += service[i]
		if i == 5 {
			return errors.New("refused")
		}
		return nil
	})
	wantLate := []float64{0, 1.5, 1.0, 0.5, 0, 0}
	wantLatency := []float64{2.5, 2.0, 1.5, 1.0, 0.5}
	if st.failed != 1 {
		t.Errorf("failed %d, want 1", st.failed)
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]*1e3-want[i]) > 1e-9 {
				t.Errorf("%s[%d] = %v ms, want %v", name, i, got[i]*1e3, want[i])
			}
		}
	}
	check("late", st.late, wantLate)
	check("latency", st.latency, wantLatency)
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	clk := &fakeClock{}
	var sent []time.Duration
	// 2 ms of warmup at 2000/s: the first 4 requests are sent, not recorded.
	st := openLoop(clk, 2000, 2*time.Millisecond, 10*time.Millisecond, func(int) error {
		sent = append(sent, clk.t)
		clk.t += 100 * time.Microsecond
		return nil
	})
	if len(sent) != 24 || len(st.latency) != 20 || len(st.late) != 20 {
		t.Fatalf("%d sent, %d recorded; want 24 and 20", len(sent), len(st.latency))
	}
	for i, s := range sent {
		if want := time.Duration(i) * 500 * time.Microsecond; s != want {
			t.Errorf("request %d sent at %v, want %v", i, s, want)
		}
	}
	for i := range st.latency {
		if st.late[i] != 0 || st.latency[i] != 100e-6 {
			t.Errorf("recorded request %d late %v latency %v", i, st.late[i], st.latency[i])
		}
	}
}

func TestSumLayersAddsBackUp(t *testing.T) {
	runs := []*runSpans{
		{ExecNS: 1000, SetupNS: 100, ReplayNS: 880, TraceNS: 80, Events: 40,
			DesignReqs: 10, DesignSampledNS: 60, DesignSampledReq: 2},
		{ExecNS: 500, SetupNS: 50, ReplayNS: 440, TraceNS: 40, Events: 20,
			DesignReqs: 4, DesignSampledNS: 0, DesignSampledReq: 0},
	}
	tot := sumLayers(runs)
	// The first run's design time scales 60 ns over 2 sampled requests
	// up to 10 requests; the second has no sample and counts 0.
	if tot.DesignNS != 300 {
		t.Errorf("design %d, want 300", tot.DesignNS)
	}
	if tot.SimSelfNS != 1320-120-300 {
		t.Errorf("sim self %d", tot.SimSelfNS)
	}
	if sum := tot.SetupNS + tot.TraceNS + tot.DesignNS + tot.SimSelfNS + tot.UnexplNS; sum != tot.ExecNS {
		t.Errorf("layers sum to %d, executor time %d", sum, tot.ExecNS)
	}
	if tot.UnexplNS != 30 || tot.Events != 60 || tot.DesignReqs != 14 || tot.Runs != 2 {
		t.Errorf("totals %+v", tot)
	}
}

// TestTracedMachineFidelity checks the traced pass's two promises on a
// short run of every design: a machine built with timing wrappers
// produces Results identical to Execute, and the standalone L1 replay
// reproduces the machine's L1 hit rate exactly.
func TestTracedMachineFidelity(t *testing.T) {
	tr := &tracer{}
	exec := tr.executor()
	for _, d := range serviceDesigns {
		r := baseRun("web-search", d, 3000, 42)
		want, err := uc.Execute(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec(want.Run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: traced Results differ from Execute", d)
		}
		cr, err := replayCaches(want.Run)
		if err != nil {
			t.Fatal(err)
		}
		if cr.L1HitRate != want.L1HitRate {
			t.Errorf("%s: standalone L1 hit rate %v, machine %v", d, cr.L1HitRate, want.L1HitRate)
		}
	}
	for _, s := range tr.all() {
		if s.Events != 3000*cores || s.DesignReqs == 0 || s.ReplayNS <= 0 {
			t.Errorf("run %d spans %+v", s.ID, s)
		}
	}
}

func TestPinnedDigestsCoverEveryDefaultSeedResult(t *testing.T) {
	pinned, err := parseDigests(pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for label := range pinned {
		kind, _, _ := strings.Cut(label, "/")
		count[kind]++
	}
	want := map[string]int{"sweep": len(sweepProfiles) * (len(sweepDesigns) + 1), "hit": hitKeys, "cold": pinnedCold}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("pinned labels %v, want %v", count, want)
	}
	// Spot-check one served-size run against its digest in process.
	res, err := uc.Execute(coldRun(defaultSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !c.check(coldLabel(0), res.Run, res) {
		t.Error("cold/0 does not match its pinned digest")
	}
}

func TestCheckerAwayFromDefaultSeed(t *testing.T) {
	c, err := newChecker(defaultSeed + 1)
	if err != nil {
		t.Fatal(err)
	}
	r := coldRun(defaultSeed+1, 0)
	res, err := uc.Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.check(coldLabel(0), r, res) {
		t.Fatal("first result of a label rejected")
	}
	other := res
	other.UIPC *= 1.01
	if c.check(coldLabel(0), r, other) {
		t.Error("a repeat that differs from the label's first result passed")
	}
	if bad, err := c.verify(); err != nil || len(bad) != 0 {
		t.Errorf("verify: %v %v", bad, err)
	}
}
