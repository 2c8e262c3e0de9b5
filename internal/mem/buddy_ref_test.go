package mem

// Frame-exact reference allocator: a binary buddy system over 4 KB
// frames, the model System's block-granular allocator (block.go)
// approximates. It is a test-only oracle, the way
// policy/legacy_ref_test.go keeps the monolithic policies: the
// differential fuzzer (FuzzAllocator) and the FreeRun distribution test
// hold the block model to it.
//
// Frames of one size on one node are fungible: Allocate hands out the
// lowest-address block of the smallest sufficient order (Linux's
// order-first policy) and Free releases a uniformly chosen live block
// of the requested size, coalescing it with free buddies, one frame at
// a time.

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/topo"
)

const (
	// frameShift is log2(Size4K); frame index = address >> frameShift.
	frameShift = 12
	// maxOrder is the largest block order: 4K << 18 = 1G.
	maxOrder = 18
	// order2M is the order of a 2 MB block: 4K << 9 = 2M.
	order2M = 9
)

// orderOf maps a valid PageSize to its buddy order.
func orderOf(size PageSize) int {
	switch size {
	case Size4K:
		return 0
	case Size2M:
		return order2M
	default:
		return maxOrder
	}
}

// sizeClass maps a valid PageSize to an index into the live-block lists.
func sizeClass(size PageSize) int {
	switch size {
	case Size4K:
		return 0
	case Size2M:
		return 1
	default:
		return 2
	}
}

// refSystem is the oracle's System: one buddyNode per NUMA node and the
// same fixed-seed LCG System uses for its victim picks.
type refSystem struct {
	nodes []*buddyNode
	rng   uint64
}

func newRefSystem(m *topo.Machine) *refSystem {
	s := &refSystem{nodes: make([]*buddyNode, m.Nodes), rng: 0x9E3779B97F4A7C15}
	for i := range s.nodes {
		s.nodes[i] = newBuddyNode(m.DRAMPerNode)
	}
	return s
}

func (s *refSystem) Allocate(n topo.NodeID, size PageSize) error {
	b := s.nodes[n]
	if uint64(size) > b.freeBytes {
		return ErrOutOfMemory
	}
	o := orderOf(size)
	frame, ok := b.alloc(o)
	if !ok {
		return ErrFragmented
	}
	c := sizeClass(size)
	b.live[c] = append(b.live[c], uint32(frame>>uint(o)))
	return nil
}

func (s *refSystem) Free(n topo.NodeID, size PageSize) error {
	b := s.nodes[n]
	c := sizeClass(size)
	l := b.live[c]
	if len(l) == 0 {
		return fmt.Errorf("%w: no live %s frame on node %d", ErrOverFree, size, n)
	}
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	i := int((s.rng >> 33) % uint64(len(l)))
	idx := uint64(l[i])
	l[i] = l[len(l)-1]
	b.live[c] = l[:len(l)-1]
	b.release(orderOf(size), idx<<uint(orderOf(size)))
	return nil
}

func (s *refSystem) FreeBytes(n topo.NodeID) uint64 { return s.nodes[n].freeBytes }

func (s *refSystem) Allocated(n topo.NodeID) uint64 {
	b := s.nodes[n]
	return b.frames<<frameShift - b.freeBytes
}

func (s *refSystem) FreeContiguous(n topo.NodeID, size PageSize) bool {
	return s.nodes[n].contiguousFree(orderOf(size))
}

// buddyNode is one node's DRAM as a buddy system. Free blocks are kept
// in per-order bitmaps (bit i of bits[o] = block i at order o is free),
// allocated lazily per order. cursor[o] is the first word of bits[o]
// that may contain a set bit.
type buddyNode struct {
	frames    uint64 // total 4 KB frames on the node
	freeBytes uint64
	nfree     [maxOrder + 1]int
	cursor    [maxOrder + 1]int
	bits      [maxOrder + 1][]uint64
	live      [3][]uint32 // live block indices per size class
}

// newBuddyNode tiles bytes of DRAM with the largest aligned free blocks.
func newBuddyNode(bytes uint64) *buddyNode {
	b := &buddyNode{frames: bytes >> frameShift}
	b.freeBytes = b.frames << frameShift
	for f := uint64(0); f < b.frames; {
		o := maxOrder
		for o > 0 && (f&(1<<uint(o)-1) != 0 || f+1<<uint(o) > b.frames) {
			o--
		}
		b.setFree(o, f>>uint(o))
		f += 1 << uint(o)
	}
	return b
}

// blocks is the number of order-o blocks that fit in the node.
func (b *buddyNode) blocks(o int) uint64 { return b.frames >> uint(o) }

func (b *buddyNode) ensure(o int) []uint64 {
	if b.bits[o] == nil {
		words := (b.blocks(o) + 63) / 64
		if words == 0 {
			words = 1
		}
		b.bits[o] = make([]uint64, words)
	}
	return b.bits[o]
}

func (b *buddyNode) setFree(o int, idx uint64) {
	w := b.ensure(o)
	w[idx>>6] |= 1 << (idx & 63)
	if int(idx>>6) < b.cursor[o] {
		b.cursor[o] = int(idx >> 6)
	}
	b.nfree[o]++
}

func (b *buddyNode) isFree(o int, idx uint64) bool {
	w := b.bits[o]
	if w == nil || idx >= b.blocks(o) {
		return false
	}
	return w[idx>>6]&(1<<(idx&63)) != 0
}

// takeLowest pops the lowest-address free block of order o, which the
// caller has checked exists (nfree[o] > 0).
func (b *buddyNode) takeLowest(o int) uint64 {
	w := b.bits[o]
	i := b.cursor[o]
	for w[i] == 0 {
		i++
	}
	b.cursor[o] = i
	idx := uint64(i)<<6 | uint64(bits.TrailingZeros64(w[i]))
	w[idx>>6] &^= 1 << (idx & 63)
	b.nfree[o]--
	return idx
}

// alloc carves one block of order o out of the free lists, splitting a
// larger block when necessary, or reports false when no free block of
// order >= o exists anywhere on the node.
func (b *buddyNode) alloc(o int) (uint64, bool) {
	j := o
	for j <= maxOrder && b.nfree[j] == 0 {
		j++
	}
	if j > maxOrder {
		return 0, false
	}
	frame := b.takeLowest(j) << uint(j)
	for j > o {
		j--
		// Keep the lower half, free the upper buddy.
		b.setFree(j, frame>>uint(j)|1)
	}
	b.freeBytes -= uint64(Size4K) << uint(o)
	return frame, true
}

// release returns the order-o block at frame to the free lists,
// coalescing with its buddy repeatedly while the buddy is free.
func (b *buddyNode) release(o int, frame uint64) {
	b.freeBytes += uint64(Size4K) << uint(o)
	idx := frame >> uint(o)
	for o < maxOrder && b.isFree(o, idx^1) {
		b.bits[o][(idx^1)>>6] &^= 1 << ((idx ^ 1) & 63)
		b.nfree[o]--
		idx >>= 1
		o++
	}
	b.setFree(o, idx)
}

// contiguousFree reports whether a block of the given order is free.
func (b *buddyNode) contiguousFree(o int) bool {
	for j := o; j <= maxOrder; j++ {
		if b.nfree[j] > 0 {
			return true
		}
	}
	return false
}

// checkRefInvariants verifies the oracle's structural buddy invariants:
// free-list counts consistent with the bitmaps, no block free inside a
// free parent, and free + live bytes summing to the node's DRAM.
func checkRefInvariants(t *testing.T, s *refSystem) {
	t.Helper()
	for n, b := range s.nodes {
		var freeBytes uint64
		for o := 0; o <= maxOrder; o++ {
			count := 0
			for idx := uint64(0); idx < b.blocks(o); idx++ {
				if !b.isFree(o, idx) {
					continue
				}
				count++
				freeBytes += uint64(Size4K) << uint(o)
				for j := o - 1; j >= 0 && j >= o-2; j-- {
					lo := idx << uint(o-j)
					for k := lo; k < lo+1<<uint(o-j); k++ {
						if b.isFree(j, k) {
							t.Fatalf("oracle node %d: order-%d block %d free inside free order-%d block %d", n, j, k, o, idx)
						}
					}
				}
			}
			if count != b.nfree[o] {
				t.Fatalf("oracle node %d order %d: nfree=%d but %d bits set", n, o, b.nfree[o], count)
			}
		}
		var liveBytes uint64
		for c, l := range b.live {
			liveBytes += uint64(len(l)) * (uint64(Size4K) << uint([]int{0, order2M, maxOrder}[c]))
		}
		if freeBytes != b.freeBytes || freeBytes+liveBytes != b.frames<<frameShift {
			t.Fatalf("oracle node %d: bitmaps hold %d free, ledger %d, live %d, DRAM %d",
				n, freeBytes, b.freeBytes, liveBytes, b.frames<<frameShift)
		}
	}
}
