package dram

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestCommandSequences is the table-driven edge-case wall for the
// controller's command legality windows: each case replays a short request
// sequence and pins down the exact row-hit outcomes and data timing the
// Table III parameters dictate — hit vs. conflict sequencing on one bank,
// bus-reservation ordering when banks interleave, and zero-gap
// back-to-back commands arriving at the same cycle.
func TestCommandSequences(t *testing.T) {
	// Expectations may reference the results of earlier steps in the same
	// sequence (prev[i] is step i's Result). Sequences start at cycle 100
	// so the zero-initialized tRRD/tFAW rank history is out of the way.
	type step struct {
		req Request
		// wantHit is the expected row-buffer outcome.
		wantHit bool
		// wantData/wantDone, when set, pin the exact CPU cycles.
		wantData, wantDone func(c *Controller, prev []Result) uint64
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			// Hit, conflict, re-hit on one bank: the conflict pays
			// PRE+ACT+CAS, and coming back to the first row pays it again
			// (the buffer now holds the second row).
			name: "hit-conflict-rehit sequencing",
			steps: []step{
				{req: Request{Bank: 0, Row: 1, Bytes: 64, At: 100}, wantHit: false,
					wantData: func(c *Controller, _ []Result) uint64 { return 100 + c.tRCD + c.tCAS }},
				{req: Request{Bank: 0, Row: 1, Bytes: 64, At: 1000}, wantHit: true,
					wantData: func(c *Controller, _ []Result) uint64 { return 1000 + c.tCAS }},
				{req: Request{Bank: 0, Row: 2, Bytes: 64, At: 2000}, wantHit: false,
					wantData: func(c *Controller, _ []Result) uint64 { return 2000 + c.tRP + c.tRCD + c.tCAS }},
				{req: Request{Bank: 0, Row: 1, Bytes: 64, At: 4000}, wantHit: false,
					wantData: func(c *Controller, _ []Result) uint64 { return 4000 + c.tRP + c.tRCD + c.tCAS }},
			},
		},
		{
			// Interleaved banks, zero-gap hits: with both rows open, two
			// hits arriving at the same cycle on different banks issue
			// their column commands in parallel, but the shared data bus
			// serializes the bursts — the second starts exactly where the
			// first ends.
			name: "interleaved banks share one bus",
			steps: []step{
				{req: Request{Bank: 0, Row: 5, Bytes: 64, At: 100}, wantHit: false},
				{req: Request{Bank: 1, Row: 5, Bytes: 64, At: 300}, wantHit: false},
				{req: Request{Bank: 0, Row: 5, Bytes: 64, At: 1000}, wantHit: true,
					wantData: func(c *Controller, _ []Result) uint64 { return 1000 + c.tCAS },
					wantDone: func(c *Controller, _ []Result) uint64 { return 1000 + c.tCAS + c.burstCPU(64) }},
				{req: Request{Bank: 1, Row: 5, Bytes: 64, At: 1000}, wantHit: true,
					wantData: func(c *Controller, prev []Result) uint64 { return prev[2].Done },
					wantDone: func(c *Controller, prev []Result) uint64 { return prev[2].Done + c.burstCPU(64) }},
			},
		},
		{
			// Zero-gap back-to-back row hits on one bank: the first is
			// CAS-gated, every later burst queues behind its predecessor
			// on the bus with no idle cycles between bursts.
			name: "zero-gap back-to-back row hits",
			steps: []step{
				{req: Request{Bank: 0, Row: 9, Bytes: 64, At: 100}, wantHit: false},
				{req: Request{Bank: 0, Row: 9, Bytes: 64, At: 200}, wantHit: true,
					wantData: func(c *Controller, _ []Result) uint64 { return 200 + c.tCAS }},
				{req: Request{Bank: 0, Row: 9, Bytes: 64, At: 200}, wantHit: true,
					wantData: func(c *Controller, prev []Result) uint64 { return prev[1].Done },
					wantDone: func(c *Controller, prev []Result) uint64 { return prev[1].Done + c.burstCPU(64) }},
				{req: Request{Bank: 0, Row: 9, Bytes: 64, At: 200}, wantHit: true,
					wantData: func(c *Controller, prev []Result) uint64 { return prev[2].Done },
					wantDone: func(c *Controller, prev []Result) uint64 { return prev[2].Done + c.burstCPU(64) }},
			},
		},
		{
			// Zero-gap write-then-read to the same open row: the read's
			// column command waits out the write burst plus tWTR.
			name: "zero-gap write-to-read turnaround",
			steps: []step{
				{req: Request{Bank: 0, Row: 3, Bytes: 64, Write: true, At: 100}, wantHit: false,
					wantData: func(c *Controller, _ []Result) uint64 { return 100 + c.tRCD + c.tCAS }},
				{req: Request{Bank: 0, Row: 3, Bytes: 64, At: 100}, wantHit: true,
					wantData: func(c *Controller, prev []Result) uint64 { return prev[0].Done + c.tWTR + c.tCAS }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustController(t, StackedConfig())
			var prev []Result
			for i, s := range tc.steps {
				res := c.Do(s.req)
				if res.RowHit != s.wantHit {
					t.Errorf("step %d: RowHit = %v, want %v", i, res.RowHit, s.wantHit)
				}
				if s.wantData != nil {
					if want := s.wantData(c, prev); res.DataAt != want {
						t.Errorf("step %d: DataAt = %d, want %d", i, res.DataAt, want)
					}
				}
				if s.wantDone != nil {
					if want := s.wantDone(c, prev); res.Done != want {
						t.Errorf("step %d: Done = %d, want %d", i, res.Done, want)
					}
				}
				prev = append(prev, res)
			}
		})
	}
}

// TestBusReservationOrder drives reads through every bank of one channel
// at the same arrival cycle and checks the bus hands out strictly
// non-overlapping, monotonically ordered bursts.
func TestBusReservationOrder(t *testing.T) {
	c := mustController(t, StackedConfig())
	var prevDone uint64
	for b := 0; b < c.cfg.Org.Banks; b++ {
		res := c.Do(Request{Bank: b, Row: 1, Bytes: 64, At: 0})
		if res.DataAt < prevDone {
			t.Errorf("bank %d: burst starts at %d inside previous burst (ends %d)", b, res.DataAt, prevDone)
		}
		if res.Done-res.DataAt != c.cfg.BurstCPU(64) {
			t.Errorf("bank %d: burst length %d, want %d", b, res.Done-res.DataAt, c.cfg.BurstCPU(64))
		}
		prevDone = res.Done
	}
	if got := c.Stats().BusBusyCPU; got != uint64(c.cfg.Org.Banks)*c.cfg.BurstCPU(64) {
		t.Errorf("BusBusyCPU = %d, want %d", got, uint64(c.cfg.Org.Banks)*c.cfg.BurstCPU(64))
	}
}

// TestMapAddrFastPathMatchesDivision pins the shift-based address mapping
// to the plain division formula for power-of-two organizations, and
// exercises a non-power-of-two organization through the slow path.
func TestMapAddrFastPathMatchesDivision(t *testing.T) {
	for _, cfg := range []Config{StackedConfig(), OffchipConfig()} {
		c := mustController(t, cfg)
		if !c.mapShifts {
			t.Fatalf("%s: power-of-two organization did not enable the shift path", cfg.Name)
		}
		totalBanks := uint64(cfg.Org.Ranks * cfg.Org.Banks)
		f := func(addr uint64) bool {
			ch, bk, row := c.MapAddr(addr)
			r := addr / uint64(cfg.Org.RowBytes)
			wantCh := int(r % uint64(cfg.Org.Channels))
			r /= uint64(cfg.Org.Channels)
			wantBk := int(r % totalBanks)
			wantRow := r / totalBanks
			return ch == wantCh && bk == wantBk && row == wantRow
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}

	odd := StackedConfig()
	odd.Org.Channels = 3
	c := mustController(t, odd)
	if c.mapShifts {
		t.Fatal("3-channel organization enabled the shift path")
	}
	ch, bk, row := c.MapAddr(5 * 8192)
	if ch != 2 || bk != 1 || row != 0 {
		t.Errorf("slow-path MapAddr = (%d,%d,%d), want (2,1,0)", ch, bk, row)
	}
}

// TestBurstCPUFastPathMatchesConfig pins the controller's memoized burst
// conversion to the Config formula across every size the designs issue.
func TestBurstCPUFastPathMatchesConfig(t *testing.T) {
	for _, cfg := range []Config{StackedConfig(), OffchipConfig()} {
		c := mustController(t, cfg)
		for bytes := 0; bytes <= 4*cfg.Org.RowBytes; bytes += 16 {
			if got, want := c.burstCPU(bytes), cfg.BurstCPU(bytes); got != want {
				t.Fatalf("%s: burstCPU(%d) = %d, want %d", cfg.Name, bytes, got, want)
			}
		}
		for _, bytes := range []int{-1, 1, 31, 33, 8191} {
			if got, want := c.burstCPU(bytes), cfg.BurstCPU(bytes); got != want {
				t.Fatalf("%s: burstCPU(%d) = %d, want %d", cfg.Name, bytes, got, want)
			}
		}
	}
}

// TestControllerFastPathsOddOrg runs a request mix through an organization
// with non-power-of-two channel count and bus width, forcing every slow
// path, and cross-checks against per-request recomputation.
func TestControllerFastPathsOddOrg(t *testing.T) {
	odd := StackedConfig()
	odd.Org.Channels = 3
	odd.Org.BusBytes = 12
	c := mustController(t, odd)
	for i := 0; i < 200; i++ {
		bytes := 16 * (i%40 + 1)
		if got, want := c.burstCPU(bytes), odd.BurstCPU(bytes); got != want {
			t.Fatalf("burstCPU(%d) = %d, want %d", bytes, got, want)
		}
	}
	res := c.Do(Request{Channel: 2, Bank: 3, Row: 4, Bytes: 96, At: 50})
	want := uint64(50) + c.tRCD + c.tCAS
	if res.DataAt != want {
		t.Errorf("odd-org cold DataAt = %d, want %d", res.DataAt, want)
	}
	if res.Done != want+odd.BurstCPU(96) {
		t.Errorf("odd-org Done = %d, want %d", res.Done, want+odd.BurstCPU(96))
	}
}

// TestLog2Of pins the power-of-two detector.
func TestLog2Of(t *testing.T) {
	for _, tc := range []struct {
		v    int
		s    uint
		ok   bool
		note string
	}{
		{1, 0, true, "2^0"}, {2, 1, true, ""}, {8192, 13, true, ""},
		{0, 0, false, "zero"}, {-4, 0, false, "negative"}, {3, 0, false, ""}, {24, 0, false, ""},
	} {
		s, ok := log2of(tc.v)
		if s != tc.s || ok != tc.ok {
			t.Errorf("log2of(%d) = (%d,%v), want (%d,%v) %s", tc.v, s, ok, tc.s, tc.ok, tc.note)
		}
	}
}

// TestRankOfMatchesDivision pins the precomputed bank-to-rank table to the
// rank-major division it replaces, for power-of-two organizations and odd
// ones, and checks that an activation lands in that rank's tRRD/tFAW
// history and no other.
func TestRankOfMatchesDivision(t *testing.T) {
	stacked, offchip := StackedConfig(), OffchipConfig()
	odd := func(ranks, banks int) Config {
		cfg := StackedConfig()
		cfg.Org.Ranks, cfg.Org.Banks = ranks, banks
		return cfg
	}
	for _, cfg := range []Config{stacked, offchip, odd(2, 4), odd(2, 3), odd(3, 5), odd(1, 7), odd(5, 1)} {
		name := fmt.Sprintf("%s %dx%d", cfg.Name, cfg.Org.Ranks, cfg.Org.Banks)
		c := mustController(t, cfg)
		if len(c.rankOf) != cfg.Org.Ranks*cfg.Org.Banks {
			t.Fatalf("%s: rank table has %d entries, want %d", name, len(c.rankOf), cfg.Org.Ranks*cfg.Org.Banks)
		}
		for b := range c.rankOf {
			want := b / cfg.Org.Banks
			if c.rankOf[b] != want {
				t.Errorf("%s: bank %d maps to rank %d, want %d", name, b, c.rankOf[b], want)
			}
			fresh := mustController(t, cfg)
			fresh.Do(Request{Channel: 0, Bank: b, Row: 1, Bytes: 64, At: 1000})
			for r, rk := range fresh.ch[0].ranks {
				if activated := rk.lastActAt != 0; activated != (r == want) {
					t.Errorf("%s: ACT to bank %d touched rank %d (lastActAt %d), want only rank %d", name, b, r, rk.lastActAt, want)
				}
			}
		}
	}
}
