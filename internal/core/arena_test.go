package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestArenaFreeStackVersionTag verifies the ABA defence of the arena free
// stack: every successful push and pop bumps the version in the upper 32
// bits of freeHead, so a CAS armed with a stale head word can never
// succeed — even when the stale word names the same node id that is on
// top again (the classic A-B-A interleaving).
func TestArenaFreeStackVersionTag(t *testing.T) {
	a := newArena()
	ids := a.allocFresh(nil, 3)
	idA, idB := ids[0], ids[1]

	a.pushChain([]uint64{idB})
	a.pushChain([]uint64{idA}) // stack: A -> B
	stale := a.freeHead.Load()
	if stale&0xffffffff != idA+1 {
		t.Fatalf("top of stack = %d, want %d", stale&0xffffffff-1, idA)
	}

	// A thread holding `stale` gets preempted; meanwhile A and B are
	// popped and A is pushed back — the top is A again, exactly the state
	// an untagged CAS would mistake for "nothing happened".
	if got := a.popChain(nil, 1); len(got) != 1 || got[0] != idA {
		t.Fatalf("popChain = %v, want [%d]", got, idA)
	}
	if got := a.popChain(nil, 1); len(got) != 1 || got[0] != idB {
		t.Fatalf("popChain = %v, want [%d]", got, idB)
	}
	a.pushChain([]uint64{idA}) // stack: A (B now owned elsewhere)

	cur := a.freeHead.Load()
	if cur&0xffffffff != idA+1 {
		t.Fatalf("top of stack = %d, want %d", cur&0xffffffff-1, idA)
	}
	if cur == stale {
		t.Fatal("head word identical after pop/pop/push cycle: version tag not advancing")
	}
	// The stale CAS is the exact instruction popChain would issue: swing
	// head to the chain below A as recorded at the stale read (B). With
	// the version tag it must fail; without it, it would succeed and
	// resurrect B — which another thread owns — onto the free stack.
	next := (stale>>32)<<32 | (idB + 1)
	if a.freeHead.CompareAndSwap(stale, next) {
		t.Fatal("stale CAS succeeded: ABA not prevented")
	}
}

// TestArenaFreeStackExclusiveOwnership hammers the free stack from many
// goroutines moving chains of varying length: a popped id is exclusively
// owned until pushed back, so observing the same id held twice means the
// stack handed it out twice — and every id must be back at the end, so a
// split chain never loses its remainder.
func TestArenaFreeStackExclusiveOwnership(t *testing.T) {
	a := newArena()
	const nids = 64
	ids := a.allocFresh(nil, nids)
	owned := make([]atomic.Int32, nids)
	for i := 0; i < nids; i += 8 {
		a.pushChain(ids[i : i+8])
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []uint64
			for i := 0; i < 5000; i++ {
				got = a.popChain(got[:0], 1+(g+i)%11)
				if len(got) == 0 {
					continue
				}
				for _, id := range got {
					if n := owned[id].Add(1); n != 1 {
						t.Errorf("id %d popped while already owned (%d holders)", id, n)
					}
				}
				for _, id := range got {
					owned[id].Add(-1)
				}
				a.pushChain(got)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for {
		got := a.popChain(nil, nids)
		if len(got) == 0 {
			break
		}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("id %d on the free stack twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != nids {
		t.Fatalf("free stack holds %d ids after the storm, want %d", len(seen), nids)
	}
}
