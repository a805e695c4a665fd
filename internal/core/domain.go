package core

import (
	"math"
	"sync"

	"repro/internal/ebr"
)

const (
	// poolSize is N from §4.4. A refill keeps at most 2N nodes in the
	// slot's pool and hands the rest to the arena free stack.
	poolSize = 128

	// maxPoolCap is the most capacity a slot's pool slice keeps after a
	// refill handed a surplus to the arena.
	maxPoolCap = 8 * poolSize

	// defaultSlots bounds the number of concurrent lock operations served
	// by the default domain.
	defaultSlots = 1024
)

// Domain owns the node arena, the reclamation domain and the per-slot node
// pools shared by every range lock created in it. Locks in the same domain
// share node pools, mirroring the paper's per-thread pools that serve all
// range locks a thread touches ("each thread has only two pools,
// regardless of the number of range locks it accesses").
type Domain struct {
	arena *arena
	rec   *ebr.Domain
	pools []nodePool // active node pool per slot; owned by the slot lessee
}

// nodePool is one slot's pool of ready node ids, padded so that two
// lessees allocating at once never share its cache line.
type nodePool struct {
	ids []uint64
	_   [5]uint64
}

// NewDomain creates an isolated domain serving at most slots concurrent
// lock operations.
func NewDomain(slots int) *Domain {
	return &Domain{
		arena: newArena(),
		rec:   ebr.NewDomain(slots),
		pools: make([]nodePool, slots),
	}
}

// ArenaNodes reports how many list nodes the domain's arena has minted.
// Recycled nodes are not counted again, so the value is the node working
// set's high-water mark. It is one atomic load.
func (d *Domain) ArenaNodes() int64 { return int64(d.arena.next.Load()) }

// Orphaned reports how many retired nodes sit on orphan stacks: released
// with their slot and not yet adopted by a collect or taken back by a
// retiring lessee (see ebr.Domain.Orphaned).
func (d *Domain) Orphaned() int64 { return d.rec.Orphaned() }

var (
	defaultDomainOnce sync.Once
	defaultDomain     *Domain
)

// DefaultDomain returns the process-wide shared domain, created lazily.
func DefaultDomain() *Domain {
	defaultDomainOnce.Do(func() { defaultDomain = NewDomain(defaultSlots) })
	return defaultDomain
}

// opCtx is the per-operation context: a leased reclamation slot plus the
// node pool attached to it. It corresponds to the paper's thread-local
// state.
type opCtx struct {
	dom  *Domain
	slot ebr.Slot
	idx  int
}

func (d *Domain) acquireCtx() opCtx {
	s := d.rec.AcquireSlot()
	return opCtx{dom: d, slot: s, idx: s.Index()}
}

// tryAcquireCtx is acquireCtx without the wait, for paths that have a
// slot-free fallback and must not block behind the caller's own leases.
func (d *Domain) tryAcquireCtx() (opCtx, bool) {
	s, ok := d.rec.TryAcquireSlot()
	if !ok {
		return opCtx{}, false
	}
	return opCtx{dom: d, slot: s, idx: s.Index()}, true
}

func (c opCtx) release() {
	c.dom.rec.ReleaseSlot(c.slot)
}

// Op is a leased per-operation context — the paper's per-thread state made
// explicit. The plain Lock/Unlock entry points lease one internally per
// call; compound operations that take several ranges (skip-list updates,
// VM syscalls with a speculative read phase and a write phase) or tight
// loops issuing many acquisitions can lease one Op and thread it through
// every *Op method instead, paying the slot lease once.
//
// An Op may be held for as long as the caller likes — one per worker
// goroutine mirrors the paper's per-thread pools exactly — but it serves
// one goroutine at a time, and a domain can sustain only as many
// concurrently held Ops as it has slots (more block in BeginOp). The zero
// Op is invalid.
type Op struct {
	c opCtx
}

// BeginOp leases an operation context from the domain, waiting politely if
// all slots are in use. Every Op must be returned with End.
func (d *Domain) BeginOp() Op {
	return Op{c: d.acquireCtx()}
}

// End returns the context to the domain. The Op must not be used again.
func (op Op) End() {
	if op.c.dom == nil {
		panic("core: End of zero Op")
	}
	op.c.release()
}

// ctx validates that op belongs to dom and unwraps it.
func (op Op) ctx(dom *Domain) opCtx {
	if op.c.dom != dom {
		if op.c.dom == nil {
			panic("core: use of zero Op")
		}
		panic("core: Op used with a lock from a different domain")
	}
	return op.c
}

// alloc returns a node id ready for initialization. It serves from the
// slot's active pool and refills it when empty (the paper's
// barrier-and-switch becomes a non-blocking collect; see DESIGN.md §1.4).
// Must be called unpinned.
func (c opCtx) alloc() uint64 {
	p := &c.dom.pools[c.idx]
	if len(p.ids) == 0 {
		p.ids = c.refill(p.ids)
	}
	id := p.ids[len(p.ids)-1]
	p.ids = p.ids[:len(p.ids)-1]
	return id
}

// refill restocks an empty pool. It takes every node reclaimable through
// the slot, orphans included, keeps 2N and hands the surplus to the arena
// free stack as one chain, so a slot that unlinks more than it allocates
// feeds the slots that allocate more. Failing that it takes a chain from
// the free stack, and only when neither holds a node does it mint fresh
// ones: a full batch on a cold start, a small one if retired nodes are
// merely waiting out their grace period.
func (c opCtx) refill(pool []uint64) []uint64 {
	pool = c.slot.Collect(pool, math.MaxInt)
	if n := len(pool) - 2*poolSize; n > 0 {
		// Collect drains the limbo front first, so the oldest retirements
		// go on and the most recent, likeliest still in this core's
		// cache, stay.
		c.dom.arena.pushChain(pool[:n])
		if cap(pool) > maxPoolCap {
			// A burst (an adoption, a stall) grew the slice; do not keep
			// its peak capacity for good.
			return append(make([]uint64, 0, 2*poolSize), pool[n:]...)
		}
		return pool[:copy(pool, pool[n:])]
	}
	if len(pool) == 0 {
		pool = c.dom.arena.popChain(pool, 2*poolSize)
	}
	if len(pool) == 0 {
		n := poolSize
		if c.slot.LimboLen() > 0 {
			n = 8
		}
		pool = c.dom.arena.allocFresh(pool, n)
	}
	return pool
}

// give returns an id that never became visible to other goroutines (e.g. a
// failed TryLock insert) straight to the pool — no grace period needed.
func (c opCtx) give(id uint64) {
	p := &c.dom.pools[c.idx]
	p.ids = append(p.ids, id)
}

// retire hands an unlinked node to the reclamation domain.
func (c opCtx) retire(id uint64) {
	c.slot.Retire(id)
}
