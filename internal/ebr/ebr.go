// Package ebr implements epoch-based memory reclamation (Fraser 2004) for
// lock-less data structures, as required by the list-based range locks of
// §4.4: threads traverse list nodes concurrently with threads unlinking
// them, so an unlinked node may only be recycled once no traversal can
// still hold a reference to it.
//
// The paper's user-space scheme couples per-thread epoch counters with
// per-thread node pools and a *blocking* barrier that waits for every
// in-flight operation to finish. A blocking barrier can deadlock in the
// range-lock setting (the barrier caller may hold a range that a spinning,
// epoch-active thread is waiting for), so this package implements the
// standard non-blocking variant: a global epoch, per-slot pinned epochs,
// and retire lists that become reclaimable two epoch advances after the
// retiring epoch. When nothing is reclaimable the caller falls back to
// fresh allocation instead of waiting.
//
// Go has no thread-local storage, so "per-thread" state becomes per-slot
// state: a goroutine leases a Slot for the duration of one operation (or
// as long as it likes) and returns it afterwards. Values under management
// are opaque uint64 handles (the range-lock arena addresses nodes by
// handle, see internal/core).
//
// Two design points keep the lease path off shared cache lines, so that
// operations on disjoint ranges — which the lock-free list lets proceed in
// parallel — do not re-serialize on the reclamation layer:
//
//   - The free-slot pool is sharded into GOMAXPROCS-sized stripes. Each
//     stripe holds a one-slot "box" (exchanged with a single atomic RMW —
//     the common case for a goroutine cycling one slot) plus a Treiber
//     overflow stack. A goroutine picks its stripe by hashing its stack
//     address and steals from neighbouring stripes only when its own runs
//     dry, so concurrent leases touch disjoint words.
//
//   - Epoch advancement is incremental: a watermark tracks the highest
//     slot index ever leased, and tryAdvance scans only [0, watermark)
//     instead of the domain's full capacity. Because stripes hand out low
//     indices first, the watermark settles near the peak number of
//     concurrently leased slots, making an advance attempt O(active), not
//     O(capacity). Attempts stay amortized (every 64th retire plus each
//     collect) and race benignly on the final epoch CAS.
//
// A slot's retire list (its limbo) lives in a bag the lessee owns. Draining
// a bag advances a head index, so a collect costs O(values reclaimed)
// whatever the bag holds. No retired value depends on its slot being leased
// again: a slot released with values in limbo gives its bag up to the
// stripe's orphan stack, and every Collect adopts the orphans, so a slot
// that is never leased again strands nothing.
package ebr

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/locks"
)

// gracePeriod is the number of global epoch advances after which a retired
// value is guaranteed unreachable: a value retired in epoch e is reclaimable
// once the global epoch reaches e+2 (every operation pinned before the
// unlink has unpinned by then).
const gracePeriod = 2

// maxStripes bounds the free-pool sharding (and thus the cost of a
// worst-case steal scan).
const maxStripes = 64

// stripe is one shard of the free-slot pool and of the bag stacks, padded
// so that neighbouring stripes never share a cache line. The bag stacks sit
// on the second line: slot leases never touch them.
type stripe struct {
	// box caches one free slot as idx+1 (0 = empty). It is the fast path:
	// leased with a single Swap, returned with a single CompareAndSwap.
	box atomic.Uint64

	// stack is the overflow Treiber stack: (version<<32) | (idx+1), linked
	// through slot.nextFree. The version tag prevents ABA reuse.
	stack atomic.Uint64

	_ [6]uint64

	// orphans holds bags released with live values, spare holds empty
	// bags; both are versioned Treiber stacks of bag indices linked
	// through bag.next, like stack.
	orphans atomic.Uint64
	spare   atomic.Uint64

	_ [6]uint64
}

// Domain is an independent reclamation domain. All goroutines operating on
// one lock-less structure (or family of structures sharing an arena) must
// use the same Domain.
type Domain struct {
	epoch atomic.Uint64 // global epoch, starts at gracePeriod so subtraction never underflows
	_     [7]uint64     // keep the hot epoch word off the advance-state line

	// hi is the watermark: one past the highest slot index ever leased.
	// Slots at or above hi have never been pinned, so tryAdvance can skip
	// them entirely.
	hi atomic.Uint32

	// advAttempts / advScanned count epoch-advance attempts and the total
	// slot states they examined — the observable proof that advancement
	// work scales with active slots, not capacity (see AdvanceStats).
	advAttempts atomic.Uint64
	advScanned  atomic.Uint64
	_           [5]uint64

	stripes []stripe
	mask    uint32 // len(stripes)-1; len is a power of two
	slots   []slot

	// bags holds twice as many limbo bags as there are slots. A slot holds
	// at most one bag, plus one more while its lessee merges an orphan, so
	// a bagless lessee always leaves at least two on the stacks.
	bags []bag
}

type retired struct {
	val   uint64
	epoch uint64
}

type slot struct {
	// state encodes (pinnedEpoch << 1) | active.
	state atomic.Uint64

	// nextFree links the slot into a stripe's overflow stack while unleased.
	nextFree atomic.Uint32

	// home is the stripe the current lease was issued for; the release
	// returns the slot there. Written only by the lessee (the lease
	// transfer through the stripe atomics orders the accesses).
	home uint32

	// bag is the index+1 of the slot's limbo bag, 0 for none. Written
	// only by the lessee, like home.
	bag uint32

	_ [13]uint64 // pad to 2 cache lines
}

// bag is one limbo list: retired values, oldest first. Its live values are
// vals[head:]. A bag is owned by one lessee, or sits on one stripe stack.
type bag struct {
	vals []retired
	head int

	// next links the bag into an orphans or spare stack.
	next atomic.Uint32

	// orphaned is the bag's live count while it sits on an orphan stack,
	// 0 otherwise; Orphaned sums it.
	orphaned atomic.Int64

	_ [2]uint64 // pad to a cache line
}

// bagKeep bounds the capacity (in values, 16 bytes each) a bag keeps after
// a burst: a compacting bag whose capacity exceeds both bagKeep and four
// times its live count moves to a smaller array, and a drained bag keeps at
// most bagKeep. Bag memory so follows the live limbo, not the largest
// burst ever seen.
const bagKeep = 1024

func (b *bag) live() int { return len(b.vals) - b.head }

// add appends r. A full bag whose dead prefix is at least half its length
// is compacted instead of grown, so every move is paid for by the reclaims
// that freed it.
func (b *bag) add(r retired) {
	if len(b.vals) == cap(b.vals) {
		b.compact()
	}
	b.vals = append(b.vals, r)
}

// compact moves a full bag's live values to the front if its dead prefix
// is at least half its length, or to a smaller array if they would leave
// it mostly empty; otherwise add's append grows the bag. It is kept out of
// line so that add stays cheap enough to inline into Retire.
//
//go:noinline
func (b *bag) compact() {
	if b.head == 0 || b.head < len(b.vals)/2 {
		return
	}
	live := b.vals[b.head:]
	if c := cap(b.vals); c > bagKeep && 4*len(live) < c {
		b.vals = append(make([]retired, 0, max(bagKeep, 2*len(live))), live...)
	} else {
		b.vals = b.vals[:copy(b.vals, live)]
	}
	b.head = 0
}

// reset empties the bag, keeping at most bagKeep of its capacity.
func (b *bag) reset() {
	if cap(b.vals) > bagKeep {
		b.vals = nil
	} else {
		b.vals = b.vals[:0]
	}
	b.head = 0
}

// Slot is a leased per-operation context. A Slot must be used by one
// goroutine at a time.
type Slot struct {
	d   *Domain
	idx uint32
}

// NewDomain creates a reclamation domain with capacity for n concurrently
// leased slots. n must be at least 1. The free pool is sharded across
// min(GOMAXPROCS, 64) stripes (rounded up to a power of two).
func NewDomain(n int) *Domain {
	return NewDomainStripes(n, 0)
}

// NewDomainStripes is NewDomain with an explicit stripe count (rounded up
// to a power of two, capped at 64); stripes <= 0 selects the GOMAXPROCS
// default. Exposed for tests and tools that need a deterministic layout.
func NewDomainStripes(n, stripes int) *Domain {
	if n < 1 {
		panic(fmt.Sprintf("ebr: invalid slot count %d", n))
	}
	if stripes <= 0 {
		stripes = runtime.GOMAXPROCS(0)
	}
	if stripes > maxStripes {
		stripes = maxStripes
	}
	ns := 1
	for ns < stripes {
		ns <<= 1
	}
	d := &Domain{
		stripes: make([]stripe, ns),
		mask:    uint32(ns - 1),
		slots:   make([]slot, n),
		bags:    make([]bag, 2*n),
	}
	d.epoch.Store(gracePeriod)
	// Seed the pool round-robin: slot i belongs to stripe i&mask, boxes get
	// the lowest indices, overflow stacks are pushed high-to-low so that
	// low indices surface first. Handing out low indices first is what
	// keeps the watermark — and with it the advance scan — near the number
	// of slots actually in circulation. Slot i starts with bag i; the
	// other half of the bags start as spares.
	for i := n - 1; i >= 0; i-- {
		idx := uint32(i)
		st := idx & d.mask
		d.slots[i].home = st
		d.slots[i].bag = idx + 1
		if uint32(i) < uint32(ns) {
			d.stripes[st].box.Store(uint64(idx + 1))
		} else {
			d.pushStack(st, idx)
		}
		push(&d.stripes[st].spare, uint32(n+i), &d.bags[n+i].next)
	}
	return d
}

// ghash hashes the calling goroutine's identity (approximated by a stack
// address — distinct goroutines occupy distinct stacks) into a stripe
// selector. Stability across calls is a performance matter only; any value
// is correct.
func ghash() uint32 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)))
	h *= 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// push links idx onto the versioned Treiber stack at head; link is idx's
// successor word. Every push and pop bumps the version in the upper 32
// bits, so a CAS armed with a stale head word always fails.
func push(head *atomic.Uint64, idx uint32, link *atomic.Uint32) {
	for {
		h := head.Load()
		link.Store(uint32(h))
		if head.CompareAndSwap(h, (h>>32+1)<<32|uint64(idx+1)) {
			return
		}
	}
}

// pop removes the top index from the stack at head; link maps an index to
// its successor word.
func pop(head *atomic.Uint64, link func(idx uint32) *atomic.Uint32) (uint32, bool) {
	for {
		h := head.Load()
		top := uint32(h)
		if top == 0 {
			return 0, false
		}
		next := (h>>32+1)<<32 | uint64(link(top-1).Load())
		if head.CompareAndSwap(h, next) {
			return top - 1, true
		}
	}
}

func (d *Domain) slotLink(idx uint32) *atomic.Uint32 { return &d.slots[idx].nextFree }
func (d *Domain) bagLink(idx uint32) *atomic.Uint32  { return &d.bags[idx].next }

func (d *Domain) pushStack(st, idx uint32) {
	push(&d.stripes[st].stack, idx, &d.slots[idx].nextFree)
}

func (d *Domain) popStack(st uint32) (uint32, bool) {
	return pop(&d.stripes[st].stack, d.slotLink)
}

// AcquireSlot leases a slot, waiting politely if all slots are in use.
// Callers typically cache the slot for the duration of one operation (or
// one worker's lifetime); holding more slots than the domain's capacity
// concurrently blocks forever.
func (d *Domain) AcquireSlot() Slot {
	h := ghash() & d.mask
	// Fast path: the calling goroutine's own box.
	if v := d.stripes[h].box.Swap(0); v != 0 {
		return d.leased(uint32(v-1), h)
	}
	var b locks.Backoff
	for {
		// All boxes first (they hold the lowest indices, preserving the
		// low-indices-first invariant the watermark depends on), then the
		// overflow stacks; own stripe first in both sweeps. The own box
		// must be rechecked each round: a release may land there while we
		// wait, and skipping it would spin forever on a 1-slot handoff.
		// Boxes are probed with a read before the Swap so that waiters do
		// not bounce every stripe's cache line around while spinning.
		for i := uint32(0); i <= d.mask; i++ {
			st := (h + i) & d.mask
			if d.stripes[st].box.Load() != 0 {
				if v := d.stripes[st].box.Swap(0); v != 0 {
					return d.leased(uint32(v-1), h)
				}
			}
		}
		for i := uint32(0); i <= d.mask; i++ {
			if idx, ok := d.popStack((h + i) & d.mask); ok {
				return d.leased(idx, h)
			}
		}
		b.Pause()
	}
}

// TryAcquireSlot is AcquireSlot without the wait: one sweep over the
// boxes and overflow stacks, reporting failure when every slot is leased.
// For callers that can fall back to a slot-free path instead of blocking
// (e.g. a release while the caller itself holds the domain's slots).
func (d *Domain) TryAcquireSlot() (Slot, bool) {
	h := ghash() & d.mask
	if v := d.stripes[h].box.Swap(0); v != 0 {
		return d.leased(uint32(v-1), h), true
	}
	for i := uint32(0); i <= d.mask; i++ {
		st := (h + i) & d.mask
		if d.stripes[st].box.Load() != 0 {
			if v := d.stripes[st].box.Swap(0); v != 0 {
				return d.leased(uint32(v-1), h), true
			}
		}
	}
	for i := uint32(0); i <= d.mask; i++ {
		if idx, ok := d.popStack((h + i) & d.mask); ok {
			return d.leased(idx, h), true
		}
	}
	return Slot{}, false
}

// leased finalizes a lease: records the lessee's home stripe and raises the
// watermark if this slot index has never circulated before.
func (d *Domain) leased(idx, home uint32) Slot {
	d.slots[idx].home = home
	for {
		h := d.hi.Load()
		if idx < h {
			break
		}
		if d.hi.CompareAndSwap(h, idx+1) {
			break
		}
	}
	return Slot{d: d, idx: idx}
}

// ReleaseSlot returns a leased slot to the domain. The slot must be
// unpinned. Values still waiting in its limbo do not wait on this slot
// being leased again: the slot gives its bag up to the stripe's orphan
// stack, which any Collect adopts, and keeps only an empty bag.
func (d *Domain) ReleaseSlot(s Slot) {
	if s.d != d {
		panic("ebr: slot released to wrong domain")
	}
	sl := &d.slots[s.idx]
	home := sl.home
	if sl.bag != 0 {
		b := &d.bags[sl.bag-1]
		if live := b.live(); live > 0 {
			b.orphaned.Store(int64(live))
			push(&d.stripes[home].orphans, sl.bag-1, &b.next)
			sl.bag = 0
		}
	}
	if !d.stripes[home].box.CompareAndSwap(0, uint64(s.idx+1)) {
		d.pushStack(home, s.idx)
	}
}

// Epoch returns the current global epoch (useful for tests and stats).
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Capacity returns the domain's slot capacity.
func (d *Domain) Capacity() int { return len(d.slots) }

// Watermark returns one past the highest slot index ever leased — the
// number of slot states an epoch-advance attempt currently examines.
func (d *Domain) Watermark() int { return int(d.hi.Load()) }

// AdvanceStats reports how many epoch-advance attempts ran and how many
// slot states they examined in total. The ratio scanned/attempts is the
// per-attempt scan cost, which stays proportional to the peak number of
// concurrently leased slots rather than the domain capacity.
func (d *Domain) AdvanceStats() (attempts, scanned uint64) {
	return d.advAttempts.Load(), d.advScanned.Load()
}

// Orphaned reports how many retired values sit on orphan stacks: released
// with their slot and not yet adopted by a Collect or taken back by a
// lessee. It reads one word per bag; only pushes onto and pops off orphan
// stacks write those words.
func (d *Domain) Orphaned() int64 {
	var n int64
	for i := range d.bags {
		n += d.bags[i].orphaned.Load()
	}
	return n
}

// Index returns the slot's dense index in [0, n); callers use it to attach
// their own per-slot state (e.g. the node pools of internal/core).
func (s Slot) Index() int { return int(s.idx) }

func (s Slot) slot() *slot { return &s.d.slots[s.idx] }

// Pin marks the slot active at the current global epoch. Every traversal
// of a protected structure must happen between Pin and Unpin.
func (s Slot) Pin() {
	e := s.d.epoch.Load()
	s.slot().state.Store(e<<1 | 1)
}

// Unpin marks the slot quiescent.
func (s Slot) Unpin() {
	st := s.slot().state.Load()
	s.slot().state.Store(st &^ 1)
}

// Retire records that val has been unlinked from the protected structure
// and may be handed back to the allocator after a grace period. Retire may
// be called pinned or unpinned.
func (s Slot) Retire(val uint64) {
	sl := s.slot()
	if sl.bag == 0 {
		sl.bag = s.d.takeBag(sl.home) + 1
	}
	b := &s.d.bags[sl.bag-1]
	b.add(retired{val: val, epoch: s.d.epoch.Load()})
	// Nudge the epoch forward periodically so that reclamation keeps pace
	// with retirement even when Collect is called rarely. (Advancing while
	// pinned is safe: the pinned slot merely blocks the *next* advance.)
	if len(b.vals)&63 == 0 {
		s.d.tryAdvance()
	}
}

// takeBag finds a bag for a lessee that has none: an orphan from the home
// stripe first (usually the bag this goroutine's last lease gave up, values
// and all), then a spare, then the other stripes. At least two bags are on
// the stacks at any instant, so a sweep misses only while bags move, and
// then another lessee has made progress.
func (d *Domain) takeBag(home uint32) uint32 {
	var bo locks.Backoff
	for {
		for i := uint32(0); i <= d.mask; i++ {
			st := &d.stripes[(home+i)&d.mask]
			if idx, ok := pop(&st.orphans, d.bagLink); ok {
				d.bags[idx].orphaned.Store(0)
				return idx
			}
			if idx, ok := pop(&st.spare, d.bagLink); ok {
				return idx
			}
		}
		bo.Pause()
	}
}

// adopt makes every bag on an orphan stack part of the slot's limbo.
func (s Slot) adopt() {
	d := s.d
	home := s.slot().home
	for i := uint32(0); i <= d.mask; i++ {
		st := &d.stripes[(home+i)&d.mask]
		for {
			b, ok := pop(&st.orphans, d.bagLink)
			if !ok {
				break
			}
			d.bags[b].orphaned.Store(0)
			s.merge(b)
		}
	}
}

// merge adds bag b to the slot's limbo: b becomes the slot's bag if it has
// none, else the smaller of the two is copied into the larger and the
// emptied one becomes a spare. Merged values keep their own retire epochs,
// so a merge never shortens a grace period; a value may wait behind a
// younger one, never longer than that one's grace period.
func (s Slot) merge(b uint32) {
	d := s.d
	sl := s.slot()
	if sl.bag == 0 {
		sl.bag = b + 1
		return
	}
	into, from := sl.bag-1, b
	if d.bags[from].live() > d.bags[into].live() {
		into, from = from, into
		sl.bag = into + 1
	}
	fb, ib := &d.bags[from], &d.bags[into]
	for _, r := range fb.vals[fb.head:] {
		ib.add(r)
	}
	fb.reset()
	push(&d.stripes[sl.home].spare, from, &fb.next)
}

// LimboLen reports how many values are awaiting reclamation on this slot.
func (s Slot) LimboLen() int {
	sl := s.slot()
	if sl.bag == 0 {
		return 0
	}
	return s.d.bags[sl.bag-1].live()
}

// tryAdvance attempts to advance the global epoch by one. The epoch can
// advance only when every active slot has observed the current epoch; only
// slots below the lease watermark can ever have been active, so the scan
// stops there. Concurrent attempts race benignly on the final CAS —
// deliberately no mutual exclusion, so a preempted attempt cannot stall
// everyone else's.
func (d *Domain) tryAdvance() {
	e := d.epoch.Load()
	hi := int(d.hi.Load())
	scanned := 0
	ok := true
	for i := 0; i < hi; i++ {
		st := d.slots[i].state.Load()
		scanned++
		if st&1 == 1 && st>>1 != e {
			ok = false // an operation is still running in an older epoch
			break
		}
	}
	d.advAttempts.Add(1)
	d.advScanned.Add(uint64(scanned))
	if ok {
		d.epoch.CompareAndSwap(e, e+1)
	}
}

// Collect attempts to reclaim values retired through this slot, appending
// at most max of them to dst and returning the extended slice. It first
// adopts every value released with its slot (see ReleaseSlot), so over
// successive calls any lessee reclaims everything retired in the domain.
// It advances the global epoch opportunistically. Collect never blocks: if
// no value has cleared its grace period, dst is returned unchanged. Its
// cost is O(values reclaimed) plus the adoption copy; the values that stay
// are not moved.
//
// The caller must not be pinned (a pinned slot would block the epoch
// advance it is asking for).
func (s Slot) Collect(dst []uint64, max int) []uint64 {
	d := s.d
	d.tryAdvance()
	s.adopt()
	sl := s.slot()
	if sl.bag == 0 {
		return dst
	}
	safe := d.epoch.Load() // values retired at epoch <= safe-gracePeriod are free
	b := &d.bags[sl.bag-1]
	for n := 0; n < max && b.head < len(b.vals) && b.vals[b.head].epoch+gracePeriod <= safe; n++ {
		dst = append(dst, b.vals[b.head].val)
		b.head++
	}
	if b.head == len(b.vals) {
		b.reset()
	}
	return dst
}
