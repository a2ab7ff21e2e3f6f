package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/serve"
	"unisoncache/internal/store"
)

// daemon is an in-process simulation service on a loopback port with a
// store in a fresh directory: the same serve.Server cmd/unisonserved
// runs, reached only through its HTTP API.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	st     *store.Store
	dir    string
	url    string
	served chan error
}

// startDaemon opens a store under tmpRoot and serves on 127.0.0.1.
// execute, when non-nil, is the timed engine hook of the traced pass.
func startDaemon(tmpRoot string, workers int, execute func(uc.Run) (uc.Result, error)) (*daemon, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: workers, Store: st, Execute: execute})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		st:     st,
		dir:    dir,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes its listener and connections, waits for
// the serve loop to exit, and removes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.srv.Drain(ctx), d.hs.Shutdown(ctx)}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, d.st.Close(), os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// serviceDeltas are the daemon's /metrics histogram sums and counts over
// one phase.
type serviceDeltas struct {
	queueWaitS, queueWaitN     float64
	storeWriteS, storeWriteN   float64
	runsHandlerS, runsHandlerN float64 // POST /v1/runs handler time
	// hookS/hookN time the daemon's serve.Config.Execute calls from
	// outside, in the traced pass.
	hookS, hookN float64
}

func (b *bench) scrape(ctx context.Context, cl *client.Client) (serviceDeltas, error) {
	m, err := cl.Metrics(ctx)
	return serviceDeltas{
		queueWaitS:   m["unisonserved_queue_wait_seconds_sum"],
		queueWaitN:   m["unisonserved_queue_wait_seconds_count"],
		storeWriteS:  m["unisonserved_store_write_seconds_sum"],
		storeWriteN:  m["unisonserved_store_write_seconds_count"],
		runsHandlerS: m[`unisonserved_http_request_seconds_sum{route="/v1/runs"}`],
		runsHandlerN: m[`unisonserved_http_request_seconds_count{route="/v1/runs"}`],
		hookS:        time.Duration(b.execNS.Load()).Seconds(),
		hookN:        float64(b.execN.Load()),
	}, err
}

func (a serviceDeltas) minus(b serviceDeltas) serviceDeltas {
	return serviceDeltas{
		queueWaitS: a.queueWaitS - b.queueWaitS, queueWaitN: a.queueWaitN - b.queueWaitN,
		storeWriteS: a.storeWriteS - b.storeWriteS, storeWriteN: a.storeWriteN - b.storeWriteN,
		runsHandlerS: a.runsHandlerS - b.runsHandlerS, runsHandlerN: a.runsHandlerN - b.runsHandlerN,
		hookS: a.hookS - b.hookS, hookN: a.hookN - b.hookN,
	}
}

// coldStats records one phase of cold requests, in seconds.
type coldStats struct {
	latency []float64 // submit to result, client side
	submit  []float64 // SubmitRun round trip
	wait    []float64 // Wait until the terminal state and the fetch
	wall    time.Duration
	deltas  serviceDeltas
}

// coldRequest submits one never-seen run, waits for its result and
// checks it; the returned durations are the client-side timers.
func (b *bench) coldRequest(ctx context.Context, cl *client.Client) (submit, wait time.Duration, err error) {
	n := int(b.coldN.Add(1) - 1)
	run := coldRun(b.seed, n)
	start := time.Now()
	j, err := cl.SubmitRun(ctx, run)
	submitted := time.Now()
	if err == nil && !j.Terminal() {
		j, err = cl.Wait(ctx, j.ID)
	}
	done := time.Now()
	b.attempted.Add(1)
	switch {
	case err != nil:
	case j.State != client.StateDone || j.Result == nil:
		err = fmt.Errorf("cold request %d ended %s: %s", n, j.State, j.Error)
	case !b.check.check(coldLabel(n), run, *j.Result):
		err = fmt.Errorf("cold request %d: result differs from the reference", n)
	}
	if err != nil {
		b.failed.Add(1)
		b.logf("%v", err)
	}
	return submitted.Sub(start), done.Sub(submitted), err
}

// minColdSamples keeps the p90 backed by ten samples beyond it.
const minColdSamples = 10 * minTail

// runCold is serve-cold's closed loop: nproc clients, each submitting a
// never-seen run and waiting for its result before the next, for at
// least dur and at least minColdSamples requests.
func (b *bench) runCold(ctx context.Context, dur time.Duration) (coldStats, error) {
	var st coldStats
	probe := client.New(b.d.url)
	before, err := b.scrape(ctx, probe)
	if err != nil {
		return st, err
	}
	var (
		mu        sync.Mutex
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(b.d.url)
			for time.Since(start) < dur || completed.Load() < minColdSamples {
				submit, wait, err := b.coldRequest(ctx, cl)
				completed.Add(1)
				if err != nil {
					continue
				}
				mu.Lock()
				st.submit = append(st.submit, submit.Seconds())
				st.wait = append(st.wait, wait.Seconds())
				st.latency = append(st.latency, (submit + wait).Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	after, err := b.scrape(ctx, probe)
	if err != nil {
		return st, err
	}
	st.deltas = after.minus(before)
	return st, nil
}

// Offered load of the mixed phase. hitRate is a fifth to a quarter of one
// connection's cached-request capacity on a 2-CPU host (3.7k to 5.7k
// requests/s, varying with the host's other load). A replay on one vCPU
// can hold hits for its whole 15-30 ms when the host takes the other
// vCPU away, and at half of capacity the 20 replays a second the trickle
// was first sized at backed up more than half of the hits in some runs.
// At these rates a replay still runs beside the hits a tenth of the time,
// and the backlog it leaves drains within a few milliseconds.
const (
	hitRate     = 1000.0
	trickleRate = 5.0
	// mixedWarmup runs before the recorded part of a mixed phase, so the
	// daemon's job history and heap reach the steady state the rest of
	// the phase runs in.
	mixedWarmup = time.Second
)

// mixedStats records one mixed phase.
type mixedStats struct {
	hits   loopStats
	deltas serviceDeltas
}

// runMixed is the mixed phase, an open loop: one connection offers cached
// repeats of the primed keys at hitRate, while a second offers cold
// requests at trickleRate, both on fixed schedules for dur.
func (b *bench) runMixed(ctx context.Context, dur time.Duration) (mixedStats, error) {
	var st mixedStats
	probe := client.New(b.d.url)
	before, err := b.scrape(ctx, probe)
	if err != nil {
		return st, err
	}
	// The key sequence is drawn before the clock starts, one key per
	// request openLoop will send.
	rng := rand.New(rand.NewSource(int64(runSeed(b.seed, streamHit, 1<<32))))
	keys := make([]int, int(hitRate*mixedWarmup.Seconds())+int(hitRate*dur.Seconds()))
	for i := range keys {
		keys[i] = rng.Intn(hitKeys)
	}
	hitClient, coldClient := client.New(b.d.url), client.New(b.d.url)
	clk := newWallClock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The trickle's own latencies are not reported; coldRequest counts
		// and checks its requests.
		openLoop(clk, trickleRate, mixedWarmup, dur, func(int) error {
			_, _, err := b.coldRequest(ctx, coldClient)
			return err
		})
	}()
	st.hits = openLoop(clk, hitRate, mixedWarmup, dur, func(i int) error {
		k := keys[i]
		run := hitRun(b.seed, k)
		j, err := hitClient.SubmitRun(ctx, run)
		b.attempted.Add(1)
		switch {
		case err != nil:
		case j.State != client.StateDone || j.Result == nil:
			err = fmt.Errorf("hit on key %d was not served from cache (state %s)", k, j.State)
		case !b.check.check(hitLabel(k), run, *j.Result):
			err = fmt.Errorf("hit on key %d: result differs from the reference", k)
		}
		if err != nil {
			b.failed.Add(1)
			b.logf("%v", err)
		}
		return err
	})
	wg.Wait()
	after, err := b.scrape(ctx, probe)
	if err != nil {
		return st, err
	}
	st.deltas = after.minus(before)
	return st, nil
}

// prime executes every hit key through the daemon so the mixed phase's
// repeats are cache hits.
func (b *bench) prime(ctx context.Context) error {
	var next atomic.Int64
	errs := make(chan error, b.nproc)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(b.d.url)
			for k := int(next.Add(1) - 1); k < hitKeys; k = int(next.Add(1) - 1) {
				run := hitRun(b.seed, k)
				res, err := cl.Execute(ctx, run)
				b.attempted.Add(1)
				if err == nil && !b.check.check(hitLabel(k), run, res) {
					err = fmt.Errorf("primed key %d: result differs from the reference", k)
				}
				if err != nil {
					b.failed.Add(1)
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
