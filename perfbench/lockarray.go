package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rangelock "repro"
)

// lock-array is ArrBench's random variant (Fig. 3e/f of the paper): a
// 256-slot array guarded by one reader-writer range lock, each operation
// taking a uniformly random range, reading its slots in shared mode or
// incrementing them in exclusive mode, then doing a random amount of
// non-critical work.
const (
	arraySlots   = 256
	arrayReadPct = 60
	arrayMaxWork = 2048
	arrayWorkers = 2
	arrayDomain  = 64 // slots of the fresh rangelock.Domain
	arrayWarmOps = 200_000
)

type slot struct {
	v uint64
	_ [7]uint64 // one slot per cache line, as in the paper
}

type lockArray struct {
	lk    *rangelock.RW
	ops   []rangelock.Op // one per worker, leased once for the whole run
	arr   []slot
	units atomic.Uint64 // slot increments done by exclusive ops
	excl  atomic.Uint64 // exclusive ops done
	rngs  []*rand.Rand  // one op stream per worker, continued across slices
}

func setupLockArray(seed int64, _ bool) (workload, error) {
	w := &lockArray{
		lk:  rangelock.NewRW(rangelock.NewDomain(arrayDomain)),
		arr: make([]slot, arraySlots),
	}
	// Each worker keeps one operation context (the paper's per-thread
	// state) from warm-up to the end of the run, whichever goroutine
	// drives it, so reclamation work is never left behind on a slot
	// nobody uses any more.
	for g := 0; g < arrayWorkers; g++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*1_000_003+int64(g))))
		w.ops = append(w.ops, w.lk.BeginOp())
	}
	// Warm-up: fill the domain's node pools and let the heap settle.
	if _, err := w.run(nil, 0, arrayWarmOps); err != nil {
		return nil, err
	}
	return w, nil
}

// arrayOpCounts are one worker's tallies.
type arrayOpCounts struct {
	ops, writes, units  uint64
	attempts, conflicts uint64
	read, write         hist // whole-op latency
	rlock, lock         hist // acquire+release only (traced)
}

func (w *lockArray) slice(ts *traceSet, d time.Duration) (*sliceStats, error) {
	return w.run(ts, d, 0)
}

// run drives the workers for d, or until each has done maxOps when
// maxOps > 0 (warm-up).
func (w *lockArray) run(ts *traceSet, d time.Duration, maxOps uint64) (*sliceStats, error) {
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		res   = make([]*arrayOpCounts, arrayWorkers)
		m0    runtime.MemStats
		m1    runtime.MemStats
		trace = ts != nil
	)
	if !trace {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	for g := 0; g < arrayWorkers; g++ {
		res[g] = new(arrayOpCounts)
		var tr *track
		if trace {
			tr = ts.track()
		}
		wg.Add(1)
		go func(g int, tr *track) {
			defer wg.Done()
			w.worker(w.ops[g], w.rngs[g], res[g], tr, &stop, maxOps)
		}(g, tr)
	}
	if maxOps == 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if !trace {
		runtime.ReadMemStats(&m1)
	}

	st := &sliceStats{elapsed: elapsed, layer: map[string]float64{}}
	var all arrayOpCounts
	for _, c := range res {
		all.ops += c.ops
		all.units += c.units
		all.writes += c.writes
		all.attempts += c.attempts
		all.conflicts += c.conflicts
		all.read.merge(&c.read)
		all.write.merge(&c.write)
		all.rlock.merge(&c.rlock)
		all.lock.merge(&c.lock)
	}
	w.units.Add(all.units)
	w.excl.Add(all.writes)
	st.ops = int64(all.ops)
	st.read, st.write = &all.read, &all.write
	if trace {
		st.layer["core.rlock_ns"] = all.rlock.quantile(0.5)
		st.layer["core.lock_ns"] = all.lock.quantile(0.5)
		if all.attempts > 0 {
			st.layer["core.conflict_ratio"] = float64(all.conflicts) / float64(all.attempts)
		}
	} else if all.ops > 0 {
		st.layer["core.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(all.ops)
	}
	return st, nil
}

func (w *lockArray) worker(op rangelock.Op, rng *rand.Rand, c *arrayOpCounts, tr *track, stop *atomic.Bool, maxOps uint64) {
	if tr != nil {
		defer tr.finish()
	}
	for !stop.Load() && (maxOps == 0 || c.ops < maxOps) {
		isRead := rng.Intn(100) < arrayReadPct
		a, b := uint64(rng.Intn(arraySlots)), uint64(rng.Intn(arraySlots))
		if a > b {
			a, b = b, a
		}
		lo, hi := a, b+1
		work := rng.Intn(arrayMaxWork)

		t0 := time.Now()
		if tr != nil {
			w.tracedOp(op, c, tr, isRead, lo, hi)
		} else {
			var g rangelock.Guard
			if isRead {
				g = w.lk.RLockOp(op, lo, hi)
				var sink uint64
				for i := lo; i < hi; i++ {
					sink += w.arr[i].v
				}
				_ = sink
			} else {
				g = w.lk.LockOp(op, lo, hi)
				for i := lo; i < hi; i++ {
					w.arr[i].v++
				}
			}
			g.UnlockOp(op)
		}
		if isRead {
			c.read.record(int64(time.Since(t0)))
		} else {
			c.write.record(int64(time.Since(t0)))
			c.writes++
			c.units += hi - lo
		}
		c.ops++

		if tr != nil {
			tr.begin(layerArray)
		}
		for ; work > 0; work-- {
			_ = work
		}
		if tr != nil {
			tr.end()
		}
	}
}

// tracedOp is one operation with spans around the lock calls. It tries
// the non-blocking acquisition first so the conflict ratio is measured on
// the workload's own range stream, then falls back to the blocking call.
func (w *lockArray) tracedOp(op rangelock.Op, c *arrayOpCounts, tr *track, isRead bool, lo, hi uint64) {
	tr.nextOp()
	c.attempts++
	tr.begin(layerCore)
	a0 := time.Now()
	var g rangelock.Guard
	var ok bool
	if isRead {
		if g, ok = w.lk.TryRLockOp(op, lo, hi); !ok {
			g = w.lk.RLockOp(op, lo, hi)
		}
	} else {
		if g, ok = w.lk.TryLockOp(op, lo, hi); !ok {
			g = w.lk.LockOp(op, lo, hi)
		}
	}
	acq := time.Since(a0)
	tr.end()
	if !ok {
		c.conflicts++
	}
	tr.begin(layerArray)
	if isRead {
		var sink uint64
		for i := lo; i < hi; i++ {
			sink += w.arr[i].v
		}
		_ = sink
	} else {
		for i := lo; i < hi; i++ {
			w.arr[i].v++
		}
	}
	tr.end()
	tr.begin(layerCore)
	r0 := time.Now()
	g.UnlockOp(op)
	rel := time.Since(r0)
	tr.end()
	if isRead {
		c.rlock.record(int64(acq + rel))
	} else {
		c.lock.record(int64(acq + rel))
	}
}

// verify: every exclusive operation incremented each slot of its range
// once, so the slots must sum to the increments counted.
func (w *lockArray) verify() error {
	var sum uint64
	for i := range w.arr {
		sum += w.arr[i].v
	}
	if sum != w.units.Load() {
		return fmt.Errorf("%w: lock-array: slots sum to %d, exclusive ops made %d increments (%d ops): lost updates", errGate, sum, w.units.Load(), w.excl.Load())
	}
	return nil
}

func (w *lockArray) close() error {
	for _, op := range w.ops {
		op.End()
	}
	return nil
}

func (w *lockArray) diskBytes() int64 { return 0 }
