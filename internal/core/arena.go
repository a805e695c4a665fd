package core

import (
	"sync"
	"sync/atomic"
)

const (
	blockBits = 10
	blockSize = 1 << blockBits // nodes per arena block
)

// lnode is the paper's LNode. Nodes are padded to a cache line so that
// busy-waiting on one node's next word does not interfere with neighbours.
type lnode struct {
	start uint64
	end   uint64

	// next holds the successor ref; its LSB is this node's deletion mark.
	next atomic.Uint64

	// reader is 1 for shared acquisitions, 0 for exclusive ones.
	reader uint32
	_      uint32

	// chain links the first node of a chain on the arena free stack to
	// the first node of the chain below it (id+1, 0 = bottom).
	chain atomic.Uint64

	_ [3]uint64 // pad to 64 bytes
}

type block [blockSize]lnode

// arena is a grow-only slab of lnodes addressed by dense ids. Blocks are
// appended under a mutex; lookups are lock-free via an atomically swapped
// block directory.
type arena struct {
	dir  atomic.Pointer[[]*block]
	mu   sync.Mutex
	next atomic.Uint64 // bump pointer for fresh ids

	// freeHead is a Treiber stack of chains of recycled node ids: the head
	// word names a chain's first node, the chain's nodes are linked through
	// lnode.next (which stores the next id+1 directly while a node is
	// free), and chains are linked through lnode.chain. The upper 32 bits
	// are an ABA version tag; the lower 32 bits hold id+1 (0 = empty).
	// Moving a batch of nodes costs one CAS either way.
	freeHead atomic.Uint64
}

func newArena() *arena {
	a := &arena{}
	dir := make([]*block, 0, 8)
	a.dir.Store(&dir)
	return a
}

// node returns the lnode for id. The id must have been allocated.
func (a *arena) node(id uint64) *lnode {
	dir := *a.dir.Load()
	return &dir[id>>blockBits][id&(blockSize-1)]
}

// capacity reports how many ids the current directory can address.
func (a *arena) capacity() uint64 {
	return uint64(len(*a.dir.Load())) << blockBits
}

// allocFresh carves n brand-new ids out of the arena, growing it as
// needed, and appends them to dst.
func (a *arena) allocFresh(dst []uint64, n int) []uint64 {
	base := a.next.Add(uint64(n)) - uint64(n)
	for base+uint64(n) > a.capacity() {
		a.grow()
	}
	for i := 0; i < n; i++ {
		dst = append(dst, base+uint64(i))
	}
	return dst
}

func (a *arena) grow() {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.dir.Load()
	if uint64(len(old))<<blockBits > a.next.Load() {
		return // another goroutine grew the directory already
	}
	next := make([]*block, len(old)+1)
	copy(next, old)
	next[len(old)] = new(block)
	a.dir.Store(&next)
}

// pushChain returns fully quiescent ids (grace period elapsed, no live
// references) to the global free stack as one chain, with a single CAS.
// ids must not be empty.
func (a *arena) pushChain(ids []uint64) {
	for i := 0; i < len(ids)-1; i++ {
		a.node(ids[i]).next.Store(ids[i+1] + 1)
	}
	a.node(ids[len(ids)-1]).next.Store(0)
	a.pushLinked(ids[0])
}

// pushLinked pushes the chain that starts at first, already linked through
// lnode.next.
func (a *arena) pushLinked(first uint64) {
	n := a.node(first)
	for {
		head := a.freeHead.Load()
		n.chain.Store(head & 0xffffffff)
		if a.freeHead.CompareAndSwap(head, (head>>32+1)<<32|(first+1)) {
			return
		}
	}
}

// popChain removes the top chain from the free stack and appends up to max
// of its ids to dst. The rest of a longer chain goes back as a chain of its
// own, so the cost is O(max) whatever the chain's length. max must be
// positive.
func (a *arena) popChain(dst []uint64, max int) []uint64 {
	var id uint64
	for {
		head := a.freeHead.Load()
		idPlus1 := head & 0xffffffff
		if idPlus1 == 0 {
			return dst
		}
		below := a.node(idPlus1-1).chain.Load() & 0xffffffff
		if a.freeHead.CompareAndSwap(head, (head>>32+1)<<32|below) {
			id = idPlus1 - 1
			break
		}
	}
	for n := 1; ; n++ {
		dst = append(dst, id)
		next := a.node(id).next.Load()
		if next == 0 {
			return dst
		}
		if n == max {
			a.pushLinked(next - 1)
			return dst
		}
		id = next - 1
	}
}
