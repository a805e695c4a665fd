package main

import (
	"fmt"
	"math/rand"
)

// class is an operation class of the file-store workloads.
type class uint8

const (
	opRead class = iota
	opWrite
	opAppend
	opTruncate
	opStat
	numClasses
)

// fileOp is one generated operation. Offsets, lengths and sizes are
// whole blocks, which is what lets every read be checked block by block.
type fileOp struct {
	class  class
	file   int
	off    uint64
	length int
	size   uint64
}

// mix is a workload's op-class weights and shape.
type mix struct {
	weights   [numClasses]int
	files     int
	fileSize  uint64
	maxBlocks int // reads span 1..maxBlocks blocks
	zipfFile  float64
	zipfOff   float64
}

// scanMix is wload's mixed-scan mix over 16 x 1 MiB files.
var scanMix = mix{
	weights:   [numClasses]int{50, 25, 10, 5, 10},
	files:     16,
	fileSize:  1 << 20,
	maxBlocks: 16,
	zipfFile:  1.2,
	zipfOff:   1.1,
}

// quorumMix is 80% single-block reads and 20% single-block writes over
// 16 x 256 KiB files: a working set that fits the client cache.
var quorumMix = mix{
	weights:   [numClasses]int{80, 20, 0, 0, 0},
	files:     16,
	fileSize:  256 << 10,
	maxBlocks: 1,
	zipfFile:  1.2,
	zipfOff:   1.1,
}

// gen draws one client's op stream from its seed.
type gen struct {
	m        *mix
	rng      *rand.Rand
	fileZipf *rand.Zipf
	offZipf  *rand.Zipf
	total    int
}

func newGen(m *mix, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{m: m, rng: rng}
	g.fileZipf = rand.NewZipf(rng, m.zipfFile, 1, uint64(m.files-1))
	g.offZipf = rand.NewZipf(rng, m.zipfOff, 1, m.fileSize/blockSize-1)
	for _, w := range m.weights {
		g.total += w
	}
	return g
}

func (g *gen) next() fileOp {
	n := g.rng.Intn(g.total)
	c := class(0)
	for ; n >= g.m.weights[c]; c++ {
		n -= g.m.weights[c]
	}
	op := fileOp{class: c, file: int(g.fileZipf.Uint64())}
	switch c {
	case opRead:
		op.off = g.offZipf.Uint64() * blockSize
		op.length = blockSize
		if g.m.maxBlocks > 1 {
			op.length *= 1 + g.rng.Intn(g.m.maxBlocks)
		}
	case opWrite:
		op.off = g.offZipf.Uint64() * blockSize
		op.length = blockSize
	case opAppend:
		op.length = blockSize
	case opTruncate:
		// Half the file size up to all of it, block aligned.
		half := g.m.fileSize / blockSize / 2
		op.size = (half + uint64(g.rng.Int63n(int64(half)+1))) * blockSize
	}
	return op
}

func fileName(i int) string { return fmt.Sprintf("pb-%02d", i) }
