package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireReleaseRoundTrip(t *testing.T) {
	d := NewDomain(2)
	s1 := d.AcquireSlot()
	s2 := d.AcquireSlot()
	if s1.idx == s2.idx {
		t.Fatalf("two leases returned the same slot %d", s1.idx)
	}
	d.ReleaseSlot(s2)
	s3 := d.AcquireSlot()
	if s3.idx != s2.idx {
		t.Fatalf("released slot %d not reused, got %d", s2.idx, s3.idx)
	}
	d.ReleaseSlot(s1)
	d.ReleaseSlot(s3)
}

func TestCollectRequiresGracePeriod(t *testing.T) {
	d := NewDomain(4)
	s := d.AcquireSlot()
	defer d.ReleaseSlot(s)

	s.Retire(42)
	// Immediately after retiring, the value must not be reclaimable even
	// with repeated collects in an otherwise idle domain until the epoch
	// has advanced twice past the retire epoch.
	got := s.Collect(nil, 16)
	if len(got) != 0 {
		t.Fatalf("value reclaimed immediately after retire: %v", got)
	}
	// Idle domain: each Collect advances the epoch once. After two more
	// advances the value clears its grace period.
	got = s.Collect(nil, 16)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("after grace period Collect = %v, want [42]", got)
	}
	if s.LimboLen() != 0 {
		t.Fatalf("limbo not drained: %d", s.LimboLen())
	}
}

func TestPinnedSlotBlocksAdvance(t *testing.T) {
	d := NewDomain(4)
	reader := d.AcquireSlot()
	writer := d.AcquireSlot()
	defer d.ReleaseSlot(reader)
	defer d.ReleaseSlot(writer)

	reader.Pin() // an in-flight traversal
	e0 := d.Epoch()

	writer.Retire(7)
	for i := 0; i < 10; i++ {
		if got := writer.Collect(nil, 16); len(got) != 0 {
			t.Fatalf("reclaimed %v while a traversal was pinned", got)
		}
	}
	// A slot pinned at e0 permits one advance (to e0+1, since it is
	// current at e0) but blocks the advance to e0+2 — which is exactly
	// why the grace period is two epochs.
	if e := d.Epoch(); e > e0+1 {
		t.Fatalf("epoch advanced from %d to %d despite stale pinned slot", e0, e)
	}

	reader.Unpin()
	got := writer.Collect(nil, 16)
	got = writer.Collect(got, 16)
	got = writer.Collect(got, 16)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("after unpin Collect = %v, want [7]", got)
	}
}

func TestRepinnedSlotAllowsAdvance(t *testing.T) {
	d := NewDomain(4)
	reader := d.AcquireSlot()
	writer := d.AcquireSlot()
	defer d.ReleaseSlot(reader)
	defer d.ReleaseSlot(writer)

	writer.Retire(9)
	for i := 0; i < 6; i++ {
		// A well-behaved reader re-pins between operations; each re-pin
		// observes the current epoch, so reclamation proceeds.
		reader.Pin()
		reader.Unpin()
		if got := writer.Collect(nil, 16); len(got) == 1 {
			return // reclaimed — success
		}
	}
	t.Fatal("value never reclaimed despite quiescent reader")
}

func TestCollectMaxBound(t *testing.T) {
	d := NewDomain(2)
	s := d.AcquireSlot()
	defer d.ReleaseSlot(s)
	for i := uint64(0); i < 10; i++ {
		s.Retire(i)
	}
	var got []uint64
	for i := 0; i < 8; i++ { // plenty of epoch advances
		got = s.Collect(got, 3)
		if len(got) > 3 {
			break
		}
	}
	// max applies per call; ensure the first reclaiming call returned at
	// most 3 and order is FIFO.
	if len(got) < 3 {
		t.Fatalf("reclaimed too few: %v", got)
	}
	for i := 0; i < 3; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("out-of-order reclamation: %v", got)
		}
	}
}

func TestSlotExhaustionAndHandoff(t *testing.T) {
	d := NewDomain(1)
	s := d.AcquireSlot()
	released := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		<-released
		s2 := d.AcquireSlot() // must eventually succeed after release
		d.ReleaseSlot(s2)
		close(acquired)
	}()
	d.ReleaseSlot(s)
	close(released)
	<-acquired
}

// TestConcurrentStress exercises lease/pin/retire/collect from many
// goroutines; correctness is "no value reclaimed twice or lost".
func TestConcurrentStress(t *testing.T) {
	d := NewDomain(16)
	const (
		goroutines = 8
		perG       = 3000
	)
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	record := func(vals []uint64) {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range vals {
			if seen[v] {
				t.Errorf("value %d reclaimed twice", v)
			}
			seen[v] = true
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []uint64
			for i := 0; i < perG; i++ {
				s := d.AcquireSlot()
				s.Pin()
				// Simulate a traversal touching shared state.
				s.Unpin()
				s.Retire(uint64(g*perG + i))
				buf = s.Collect(buf[:0], 64)
				record(buf)
				d.ReleaseSlot(s)
			}
			// Drain what remains attached to whatever slots we can lease.
			for i := 0; i < 64; i++ {
				s := d.AcquireSlot()
				buf = s.Collect(buf[:0], 1<<20)
				record(buf)
				d.ReleaseSlot(s)
			}
		}(g)
	}
	wg.Wait()

	// Final drain across all slots from a single goroutine.
	var buf []uint64
	for i := 0; i < len(d.slots)*4; i++ {
		s := d.AcquireSlot()
		buf = s.Collect(buf[:0], 1<<20)
		record(buf)
		d.ReleaseSlot(s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != goroutines*perG {
		t.Fatalf("reclaimed %d distinct values, want %d", len(seen), goroutines*perG)
	}
}

func BenchmarkPinUnpin(b *testing.B) {
	d := NewDomain(8)
	s := d.AcquireSlot()
	defer d.ReleaseSlot(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pin()
		s.Unpin()
	}
}

func BenchmarkAcquireRelease(b *testing.B) {
	d := NewDomain(64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := d.AcquireSlot()
			d.ReleaseSlot(s)
		}
	})
}

// TestOversubscription leases far more goroutines than slots: acquisition
// must degrade to waiting (never deadlock) and no slot may be leased by
// two goroutines at once.
func TestOversubscription(t *testing.T) {
	const slots = 4
	d := NewDomainStripes(slots, 8) // more stripes than slots
	var inUse [slots]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := d.AcquireSlot()
				if n := inUse[s.Index()].Add(1); n != 1 {
					t.Errorf("slot %d double-leased (%d holders)", s.Index(), n)
				}
				s.Pin()
				s.Retire(uint64(g*1000 + i))
				s.Unpin()
				_ = s.Collect(nil, 8)
				inUse[s.Index()].Add(-1)
				d.ReleaseSlot(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestAdvanceScanScalesWithActiveSlots is the observable contract of the
// incremental design: epoch-advance attempts examine slots up to the lease
// watermark, not the domain's full capacity. With a 1024-slot domain and
// two workers, the per-attempt scan must stay near 2, not 1024.
func TestAdvanceScanScalesWithActiveSlots(t *testing.T) {
	const capacity = 1024
	d := NewDomain(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.AcquireSlot()
			defer d.ReleaseSlot(s)
			var buf []uint64
			for i := 0; i < 20000; i++ {
				s.Pin()
				s.Unpin()
				s.Retire(uint64(i))
				if i&255 == 0 {
					buf = s.Collect(buf[:0], 256)
				}
			}
		}()
	}
	wg.Wait()

	attempts, scanned := d.AdvanceStats()
	if attempts == 0 {
		t.Fatal("no epoch-advance attempts recorded")
	}
	perAttempt := float64(scanned) / float64(attempts)
	if wm := d.Watermark(); wm > 64 {
		t.Fatalf("watermark %d for 2 concurrent lessees (capacity %d)", wm, capacity)
	}
	// The strict bound is watermark slots per attempt; assert with slack
	// that we are nowhere near a full-capacity scan.
	if perAttempt > 64 {
		t.Fatalf("advance scans %.1f slots/attempt; want O(active), capacity is %d", perAttempt, capacity)
	}
}

// TestStripedReleasePrefersHome exercises the stripe box round-trip: a
// goroutine cycling acquire/release must converge onto a few slots instead
// of walking the whole pool (which would defeat both cache locality and
// the watermark). ghash only promises best-effort stability (a GC stack
// move can change the stripe), so the assertion allows a couple of
// migrations rather than demanding one slot forever.
func TestStripedReleasePrefersHome(t *testing.T) {
	d := NewDomain(64)
	distinct := make(map[int]bool)
	maxIdx := 0
	for i := 0; i < 100; i++ {
		s := d.AcquireSlot()
		distinct[s.Index()] = true
		if s.Index() > maxIdx {
			maxIdx = s.Index()
		}
		d.ReleaseSlot(s)
	}
	if len(distinct) > 3 {
		t.Fatalf("100 acquire/release cycles circulated %d distinct slots, want convergence onto a few", len(distinct))
	}
	if wm := d.Watermark(); wm != maxIdx+1 {
		t.Fatalf("watermark %d after cycling slots up to %d, want %d", wm, maxIdx, maxIdx+1)
	}
}

// TestStealFromForeignStripe drains every stripe but one and verifies a
// goroutine hashed elsewhere still finds the free slot.
func TestStealFromForeignStripe(t *testing.T) {
	d := NewDomainStripes(8, 8)
	// Lease all 8 slots, then return exactly one.
	held := make([]Slot, 0, 8)
	for i := 0; i < 8; i++ {
		held = append(held, d.AcquireSlot())
	}
	d.ReleaseSlot(held[5])
	// Whatever stripe this goroutine hashes to, the lone free slot must be
	// found without blocking.
	s := d.AcquireSlot()
	if s.Index() != held[5].Index() {
		t.Fatalf("leased slot %d, want the released slot %d", s.Index(), held[5].Index())
	}
}

// TestAcquireSeesBoxReleaseWhileWaiting regression-tests the 1-slot
// handoff: a goroutine already inside AcquireSlot's wait loop must observe
// a slot released into its own stripe's box (not only into the overflow
// stack), or a two-party handoff hangs forever.
func TestAcquireSeesBoxReleaseWhileWaiting(t *testing.T) {
	d := NewDomainStripes(1, 1)
	s := d.AcquireSlot()
	got := make(chan Slot)
	go func() { got <- d.AcquireSlot() }()
	// Let the waiter pass its fast-path box check and enter the loop.
	time.Sleep(50 * time.Millisecond)
	d.ReleaseSlot(s)
	select {
	case s2 := <-got:
		d.ReleaseSlot(s2)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never observed the released slot")
	}
}

// TestReleasedLimboReclaimableByAnyLessee is the no-stranding invariant:
// every retired value becomes reclaimable by some lessee without that
// lessee leasing any particular slot. Sixteen releasers retire through all
// sixteen slots at once and release them with values still in limbo; a
// single goroutine then drains, and with one stripe its lease is the box
// slot every time, so it never leases the other fifteen slots the values
// went through.
func TestReleasedLimboReclaimableByAnyLessee(t *testing.T) {
	const (
		slots = 16
		perR  = 100
	)
	d := NewDomainStripes(slots, 1)
	var leased, wg sync.WaitGroup
	leased.Add(slots)
	for r := 0; r < slots; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := d.AcquireSlot()
			leased.Done()
			leased.Wait() // every slot is leased: each releaser retires through its own
			for i := 0; i < perR; i++ {
				s.Retire(uint64(r*perR + i))
			}
			d.ReleaseSlot(s)
		}(r)
	}
	wg.Wait()
	if got, want := d.Orphaned(), int64(slots*perR); got != want {
		t.Fatalf("Orphaned() = %d after every slot was released with values, want %d", got, want)
	}

	seen := make(map[uint64]bool)
	drainSlot := -1
	var buf []uint64
	for i := 0; i < 8 && len(seen) < slots*perR; i++ {
		s := d.AcquireSlot()
		if drainSlot < 0 {
			drainSlot = s.Index()
		} else if s.Index() != drainSlot {
			t.Fatalf("drain leased slot %d after slot %d; the test needs one slot throughout", s.Index(), drainSlot)
		}
		buf = s.Collect(buf[:0], 1<<20)
		for _, v := range buf {
			if seen[v] {
				t.Fatalf("value %d reclaimed twice", v)
			}
			seen[v] = true
		}
		d.ReleaseSlot(s)
	}
	if len(seen) != slots*perR {
		t.Fatalf("one lessee reclaimed %d of %d released values", len(seen), slots*perR)
	}
	if n := d.Orphaned(); n != 0 {
		t.Fatalf("Orphaned() = %d after the drain, want 0", n)
	}
}

// TestBoxReleaseOrphansLimbo checks the box release path: a slot released
// into an empty box gives its limbo up to the orphan stack like any other
// release, so another lessee's Collect takes the values while the released
// slot stays in the box, still leasable, with no values of its own.
func TestBoxReleaseOrphansLimbo(t *testing.T) {
	d := NewDomainStripes(2, 1)
	x := d.AcquireSlot() // the box slot
	y := d.AcquireSlot() // the stack slot
	for i := uint64(0); i < 10; i++ {
		y.Retire(i)
	}
	d.ReleaseSlot(y) // the box is empty: y goes there, its limbo to the orphans
	if n := d.Orphaned(); n != 10 {
		t.Fatalf("Orphaned() = %d after releasing a slot with 10 values, want 10", n)
	}
	var got []uint64
	for i := 0; i < 4 && len(got) < 10; i++ {
		got = x.Collect(got, 100)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("reclaimed %v, want 0..9 in order", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("x reclaimed %v of y's released limbo, want all 10", got)
	}
	if n := d.Orphaned(); n != 0 {
		t.Fatalf("Orphaned() = %d after adoption, want 0", n)
	}
	s, ok := d.TryAcquireSlot()
	if !ok || s.Index() != y.Index() {
		t.Fatalf("TryAcquireSlot = %d, %v; want the released slot %d from the box", s.Index(), ok, y.Index())
	}
	if n := s.LimboLen(); n != 0 {
		t.Fatalf("released slot leased again with %d values in limbo, want 0", n)
	}
	d.ReleaseSlot(s) // an empty limbo orphans nothing
	if n := d.Orphaned(); n != 0 {
		t.Fatalf("Orphaned() = %d after releasing an empty limbo, want 0", n)
	}
}

// TestPartialCollectsKeepFIFO interleaves retires with collects capped
// below the retire rate, so the limbo's drained prefix is reused by
// compaction again and again: values must still come back exactly once,
// oldest first, and LimboLen must count what is left.
func TestPartialCollectsKeepFIFO(t *testing.T) {
	d := NewDomain(1)
	s := d.AcquireSlot()
	defer d.ReleaseSlot(s)
	var next, want uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			s.Retire(next)
			next++
		}
		s.Collect(nil, 0) // two epoch advances: this round's values clear their grace period
		s.Collect(nil, 0)
		got := s.Collect(nil, 29)
		if len(got) != 29 {
			t.Fatalf("round %d: reclaimed %d values, want 29", round, len(got))
		}
		for _, v := range got {
			if v != want {
				t.Fatalf("round %d: reclaimed %d, want %d (FIFO)", round, v, want)
			}
			want++
		}
		if live := s.LimboLen(); uint64(live) != next-want {
			t.Fatalf("round %d: LimboLen = %d, want %d", round, live, next-want)
		}
	}
}

// TestBagCapacityFollowsLiveLimbo checks that a burst does not fix a bag's
// memory at its peak: once the burst is reclaimed, a compaction moves the
// live values to an array sized by them, and a fully drained bag keeps
// at most bagKeep of its capacity. Values still come back oldest first.
func TestBagCapacityFollowsLiveLimbo(t *testing.T) {
	const burst = 20 * bagKeep
	d := NewDomain(1)
	s := d.AcquireSlot()
	defer d.ReleaseSlot(s)
	b := func() *bag { return &d.bags[s.slot().bag-1] }
	var next, want uint64
	for ; next < burst; next++ {
		s.Retire(next)
	}
	if c := cap(b().vals); c < burst {
		t.Fatalf("cap %d after a burst of %d retires", c, burst)
	}
	collect := func(max int) {
		s.Collect(nil, 0) // two epoch advances: every value retired so far clears its grace period
		s.Collect(nil, 0)
		for _, v := range s.Collect(nil, max) {
			if v != want {
				t.Fatalf("reclaimed %d, want %d (FIFO)", v, want)
			}
			want++
		}
	}
	collect(burst - 10) // ten values stay live
	for len(b().vals) < cap(b().vals) {
		s.Retire(next)
		next++
	}
	s.Retire(next) // the full bag compacts
	next++
	if c, live := cap(b().vals), b().live(); c >= burst || c > max(bagKeep, 2*live) {
		t.Fatalf("cap %d after compacting %d live values, want ≤ max(%d, 2·live)", c, live, bagKeep)
	}
	for ; next < 2*burst; next++ {
		s.Retire(next)
	}
	collect(int(next)) // the bag drains completely and resets
	if want != next {
		t.Fatalf("reclaimed up to %d of %d values", want, next)
	}
	if c := cap(b().vals); c > bagKeep {
		t.Fatalf("cap %d after draining, want ≤ %d", c, bagKeep)
	}
}
