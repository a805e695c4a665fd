package core

// PoolSize is N, the per-slot pool size of §4.4, for the external tests'
// bounds.
const PoolSize = poolSize

// LimboLen reports how many retired nodes wait on op's slot. Only op's
// holder may call it.
func (op Op) LimboLen() int { return op.c.slot.LimboLen() }

// PoolCap reports the capacity of op's node pool slice. Only op's holder
// may call it.
func (op Op) PoolCap() int { return cap(op.c.dom.pools[op.c.idx].ids) }
