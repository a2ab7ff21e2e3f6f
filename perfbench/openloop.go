package main

import (
	"runtime"
	"syscall"
	"time"
)

// clock is the open loop's time source: offsets from the loop's start.
// Tests substitute a fake to check due-time and lateness accounting.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock is the real clock. Go's timers round sub-millisecond sleeps
// up to about a millisecond, which at a few thousand requests per second
// would make the generator, not the daemon, the source of most latency.
// So it sleeps with nanosleep(2), whose overshoot is the kernel's ~50 µs
// timer slack, to just short of the due time and spins the rest.
type wallClock struct{ start time.Time }

// spinWindow is how far ahead of a due time the sleep ends; the spin
// covers it, and the timer slack lands inside it.
const spinWindow = 80 * time.Microsecond

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only shortens the sleep; the spin below absorbs it.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// loopStats is one open loop's per-request record, in seconds.
type loopStats struct {
	// latency runs from each request's due time to its completion, so a
	// stall also charges the requests queued behind it.
	latency []float64
	// late is how long after its due time each request was actually sent:
	// the generator's own health.
	late   []float64
	failed int
}

// openLoop sends requests over one connection at a fixed offered rate
// for warmup+dur: request i is due at i/rate whether or not earlier ones
// have finished. A request due while the previous one is still in flight
// is sent as soon as the connection frees up, and its wait counts toward
// its latency. Requests due in the warmup are sent but not recorded;
// failed requests are counted, not timed.
func openLoop(c clock, rate float64, warmup, dur time.Duration, send func(i int) error) loopStats {
	skip := int(rate * warmup.Seconds())
	n := skip + int(rate*dur.Seconds())
	st := loopStats{latency: make([]float64, 0, n-skip), late: make([]float64, 0, n-skip)}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) * interval)
		c.sleepUntil(due)
		sent := c.now()
		err := send(i)
		done := c.now()
		if i < skip {
			continue
		}
		st.late = append(st.late, (sent - due).Seconds())
		if err != nil {
			st.failed++
			continue
		}
		st.latency = append(st.latency, (done - due).Seconds())
	}
	return st
}
