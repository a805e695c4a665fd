package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// blockSize is the unit every served-scan and quorum-write write, append
// and truncate is aligned to, so that any aligned block read back must be
// all zeros or exactly one writer's payload.
const blockSize = 4096

const payloadMagic = 0x4b4c4250 // "PBLK"

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	zeroBlock  = make([]byte, blockSize)
)

// fillPayload writes the block identified by tag into p (len blockSize):
// magic, a CRC-32C of everything after it, the tag, and a body derived
// from the tag. Two different tags never share a body, so a block that
// mixes bytes of two writes fails its checksum.
func fillPayload(p []byte, tag uint64) {
	binary.LittleEndian.PutUint32(p[0:], payloadMagic)
	binary.LittleEndian.PutUint64(p[8:], tag)
	x := tag*0x9e3779b97f4a7c15 | 1
	for i := 16; i < blockSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p[i:], x)
	}
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(p[8:blockSize], castagnoli))
}

// blockTag checks one aligned block read back. It returns the writer tag
// (0 for a never-written, all-zero block) or an error when the block is
// neither zeros nor one intact payload.
func blockTag(b []byte) (uint64, error) {
	if bytes.Equal(b, zeroBlock) {
		return 0, nil
	}
	if binary.LittleEndian.Uint32(b[0:]) != payloadMagic {
		return 0, fmt.Errorf("%w: block is neither zeros nor a payload (bad magic)", errGate)
	}
	if crc32.Checksum(b[8:blockSize], castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, fmt.Errorf("%w: torn block: payload %#x fails its checksum", errGate, binary.LittleEndian.Uint64(b[8:]))
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// checkBlocks applies blockTag to every aligned block of a read.
func checkBlocks(data []byte) error {
	if len(data)%blockSize != 0 {
		return fmt.Errorf("%w: read returned %d bytes, not a whole number of %d-byte blocks", errGate, len(data), blockSize)
	}
	for i := 0; i < len(data); i += blockSize {
		if _, err := blockTag(data[i : i+blockSize]); err != nil {
			return err
		}
	}
	return nil
}

// makeTag packs a writer id and its per-writer sequence number.
func makeTag(writer int, seq uint64) uint64 { return uint64(writer+1)<<48 | seq }
