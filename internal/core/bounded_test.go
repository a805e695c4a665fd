package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// raceEnabled is set by race_test.go in -race builds, where the long
// single-schedule runs below would cost minutes per repetition.
var raceEnabled bool

// TestNodeWorkingSetBounded checks that reclamation keeps the node working
// set bounded when one slot unlinks what another allocates. Two goroutines
// each hold one Op for the whole run, as lock-array's workers do. A takes
// random reader/writer ranges over 256 units; B keeps re-taking [0, 1),
// and its traversal unlinks — so retires — every node A released, while A
// never retires anything. The arena's minted node count and each slot's
// limbo must stay under 16·N however long the run: B's surplus has to
// reach A through the arena free stack, or A mints forever.
//
// The goroutines take turns (each turn ends unpinned), which makes the run
// deterministic. Under free-running concurrency a lessee descheduled while
// pinned blocks every reclamation until it runs again, and allocation
// meanwhile mints, so a fixed bound would also be measuring the host's
// scheduling.
func TestNodeWorkingSetBounded(t *testing.T) {
	const (
		units   = 256
		readPct = 60
	)
	rounds := 500_000 // one acquisition per goroutine per round
	if testing.Short() || raceEnabled {
		rounds = 50_000 // an allocator that never hands surplus across slots exceeds the bound within ~2,000 rounds
	}
	bound := 16 * core.PoolSize
	dom := core.NewDomain(64)
	rw := core.NewRW(dom)

	toA, toB, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		op := dom.BeginOp()
		defer op.End()
		rng := rand.New(rand.NewSource(1))
		for range toA {
			a, b := 1+uint64(rng.Intn(units)), 1+uint64(rng.Intn(units))
			if a > b {
				a, b = b, a
			}
			var g core.Guard
			if rng.Intn(100) < readPct {
				g = rw.RLockOp(op, a, b+1)
			} else {
				g = rw.LockOp(op, a, b+1)
			}
			g.UnlockOp(op)
			if n := op.LimboLen(); n > bound {
				t.Errorf("A's limbo holds %d nodes, bound %d", n, bound)
			}
			toB <- struct{}{}
		}
	}()

	op := dom.BeginOp()
	var g core.Guard
	for i := 0; i < rounds; i++ {
		if g.Held() {
			g.UnlockOp(op)
		}
		g = rw.LockOp(op, 0, 1)
		toA <- struct{}{}
		<-toB
		if n := op.LimboLen(); n > bound {
			t.Fatalf("round %d: B's limbo holds %d nodes, bound %d", i, n, bound)
		}
		if n := dom.ArenaNodes(); n > int64(bound) {
			t.Fatalf("round %d: the arena minted %d nodes, bound %d", i, n, bound)
		}
	}
	close(toA)
	<-done
	g.UnlockOp(op)
	op.End()
	t.Logf("arena minted %d nodes over %d acquisitions (bound %d)", dom.ArenaNodes(), 2*rounds, bound)
}

// TestPoolCapacityBoundedAfterBurst checks that a refill which reclaims a
// large burst hands the surplus to the arena without keeping the burst's
// capacity in the slot's pool. B's unlinks of many of A's nodes pile up in
// B's limbo; B's next refill takes them all at once.
func TestPoolCapacityBoundedAfterBurst(t *testing.T) {
	const held = 32 * core.PoolSize
	dom := core.NewDomain(4)
	rw := core.NewRW(dom)
	a := dom.BeginOp()
	guards := make([]core.Guard, held)
	for i := range guards {
		lo := uint64(held - i) // descending, so each insert lands at the head
		guards[i] = rw.RLockOp(a, lo, lo+1)
	}
	for _, g := range guards {
		g.UnlockOp(a)
	}
	a.End()

	b := dom.BeginOp()
	defer b.End()
	// B's traversals unlink A's released nodes, and its allocations drain
	// its pool until a refill reclaims them.
	for i := 0; i < 8*core.PoolSize; i++ {
		rw.LockOp(b, 0, held+1).UnlockOp(b)
		if c := b.PoolCap(); c > 8*core.PoolSize {
			t.Fatalf("acquisition %d: pool slice capacity %d, want ≤ %d", i, c, 8*core.PoolSize)
		}
	}
	if n := dom.ArenaNodes(); n > 2*held {
		t.Fatalf("arena minted %d nodes, want reuse after the burst (≤ %d)", n, 2*held)
	}
}
