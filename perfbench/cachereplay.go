package main

import (
	"time"

	uc "unisoncache"
	"unisoncache/internal/cache"
	"unisoncache/internal/trace"
)

// cacheReplay is a standalone pass of a run's per-core event streams
// through the SRAM caches alone, built with cache.New from the run's L1
// and L2 configs. It isolates the host cost of the cache layer, which in
// the machine is interleaved with the scheduler too finely to time.
type cacheReplay struct {
	// L1HitRate is the measured-interval hit rate averaged over cores,
	// computed as the machine computes Results.L1HitRate. The L1 is
	// private and sees only its core's stream, so this must equal the
	// machine's value exactly whatever the interleaving.
	L1HitRate float64
	L1NS      int64
	L1Calls   int64
	// The L2 sees the cores' L1 misses and writebacks in round-robin
	// batches, not in the machine's clock order, so its hit rate is not
	// the machine's; only its host cost per access is used.
	L2NS    int64
	L2Calls int64
}

// replayBatch matches the machine's per-core prefetch depth.
const replayBatch = 256

// replayCaches streams r's events (r fully defaulted) through fresh
// caches: the warmup fraction first, then statistics reset, then the
// measured region, like the machine's two phases.
func replayCaches(r uc.Run) (cacheReplay, error) {
	var out cacheReplay
	prof, err := scaledProfile(r)
	if err != nil {
		return out, err
	}
	cfg := machineConfig(r)
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return out, err
	}
	srcs := make([]*trace.Stream, r.Cores)
	l1s := make([]*cache.Cache, r.Cores)
	for i := range srcs {
		if srcs[i], err = trace.NewStream(prof, r.Seed, i); err != nil {
			return out, err
		}
		if l1s[i], err = cache.New(cfg.L1); err != nil {
			return out, err
		}
	}
	warm := int(float64(r.AccessesPerCore) * cfg.WarmupFrac)
	buf := make([]trace.Event, replayBatch)
	type l2req struct {
		block uint64
		write bool
	}
	l2q := make([]l2req, 0, 2*replayBatch)
	for phase, length := range []int{warm, r.AccessesPerCore - warm} {
		if phase == 1 {
			for _, l1 := range l1s {
				l1.ResetStats()
			}
			l2.ResetStats()
		}
		remaining := make([]int, r.Cores)
		for i := range remaining {
			remaining[i] = length
		}
		for active := true; active; {
			active = false
			for c, src := range srcs {
				n := min(remaining[c], replayBatch)
				if n == 0 {
					continue
				}
				active = true
				remaining[c] -= n
				src.NextBatch(buf[:n])
				l2q = l2q[:0]
				l1 := l1s[c]
				start := time.Now()
				for _, ev := range buf[:n] {
					block := ev.Addr.Block()
					res := l1.Access(block, ev.Write)
					if res.Hit {
						continue
					}
					if res.Writeback {
						l2q = append(l2q, l2req{res.WritebackBlock, true})
					}
					l2q = append(l2q, l2req{block, false})
				}
				mid := time.Now()
				for _, q := range l2q {
					l2.Access(q.block, q.write)
				}
				out.L1NS += int64(mid.Sub(start))
				out.L2NS += int64(time.Since(mid))
				out.L1Calls += int64(n)
				out.L2Calls += int64(len(l2q))
			}
		}
	}
	var sum float64
	for _, l1 := range l1s {
		sum += l1.Stats().HitRate()
	}
	out.L1HitRate = sum / float64(len(l1s))
	return out, nil
}
