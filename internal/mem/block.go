package mem

// Block-granular physical memory, one instance per NUMA node (DESIGN.md
// §2.2 states what is exact and what approximated): a 2M (1G)
// allocation succeeds exactly when an aligned 2 MB (1 GB) block is
// wholly free, which under churn fails even on a half-empty node (§3.2).
// Frees pick victims uniformly among the node's live frames of the size
// (uncorrelated lifetimes), from a fixed-seed LCG stepped only by frees
// in the engine's serial sections, so runs are deterministic.

import (
	"math"
	"math/bits"
)

const (
	framesPerBlock  = int(Size2M / Size4K) // 4 KB frames per 2 MB block
	blocksPerRegion = int(Size1G / Size2M) // 2 MB blocks per 1 GB region
)

// blockNode is one node's DRAM; a block neither free nor holding a live
// 4 KB frame is held whole by a 2M or 1G allocation. A segment tree over
// groups of 64 blocks (one bitmap word each) sums their live 4 KB frames.
type blockNode struct {
	blocks, leaves int // 2 MB blocks; tree leaves (a power of two >= groups)
	freeBytes      uint64
	live           []uint16 // live 4 KB frames per block, grown to the highest block used
	sum            []uint32 // group g at leaf leaves+g; node j sums 2j and 2j+1
	free, partial  []uint64 // bit b: block b is wholly free / partially used by 4 KB frames
	partFrom       int      // no partial bit is set below this word
	regionFree     []int    // wholly free blocks per 1 GB region
	free2M, free1G int      // wholly free blocks and full-size regions
	held2M, held1G []uint32 // blocks held by 2M allocations, regions by 1G ones
}

func newBlockNode(bytes uint64) *blockNode {
	if bytes%uint64(Size2M) != 0 {
		panic("mem: node DRAM must be a whole number of 2 MB blocks")
	}
	blocks := int(bytes / uint64(Size2M))
	words := (blocks + 63) / 64
	leaves := 1 << bits.Len(uint(words-1))
	b := &blockNode{blocks: blocks, leaves: leaves, freeBytes: bytes, free2M: blocks,
		sum: make([]uint32, 2*leaves), free: make([]uint64, words), partial: make([]uint64, words),
		regionFree: make([]int, (blocks+blocksPerRegion-1)/blocksPerRegion)}
	for i := range b.free {
		b.free[i] = math.MaxUint64 >> max(0, (i+1)*64-blocks)
	}
	for r := range b.regionFree {
		b.regionFree[r] = min(blocksPerRegion, blocks-r*blocksPerRegion)
		b.free1G += b.regionFree[r] / blocksPerRegion
	}
	return b
}

// setFree marks block i wholly free or takes it out of the free set.
func (b *blockNode) setFree(i int, free bool) {
	r, d := i/blocksPerRegion, -1
	if free {
		b.free[i>>6] |= 1 << (i & 63)
		d = 1
	} else {
		b.free[i>>6] &^= 1 << (i & 63)
	}
	if b.regionFree[r] == blocksPerRegion || b.regionFree[r]+d == blocksPerRegion {
		b.free1G += d
	}
	b.regionFree[r] += d
	b.free2M += d
}

func (b *blockNode) setPartial(i int, on bool) {
	b.partial[i>>6] &^= 1 << (i & 63)
	if on {
		b.partial[i>>6] |= 1 << (i & 63)
		b.partFrom = min(b.partFrom, i>>6)
	}
}

// takeBlock removes one wholly free block, which the caller has checked
// exists, by the buddy's smallest-order-first rule at block level: the
// lowest one of the lowest partially used region if any region is, else
// of the lowest wholly free region.
func (b *blockNode) takeBlock() int {
	r := -1
	for j, f := range b.regionFree {
		if f > 0 && f < min(blocksPerRegion, b.blocks-j*blocksPerRegion) {
			r = j // partially used, with a free block
			break
		} else if f > 0 && r < 0 {
			r = j
		}
	}
	w := r * blocksPerRegion / 64
	for b.free[w] == 0 {
		w++
	}
	i := w<<6 | bits.TrailingZeros64(b.free[w])
	b.setFree(i, false)
	return i
}

// setRegion frees or takes every block of the full-size region r.
func (b *blockNode) setRegion(r int, free bool) {
	for i := r * blocksPerRegion; i < (r+1)*blocksPerRegion; i++ {
		b.setFree(i, free)
	}
}

// alloc reserves count frames of size, stopping at the first that does
// not fit, and returns how many it reserved.
func (b *blockNode) alloc(size PageSize, count int) int {
	done := 0
	for done < count {
		switch {
		case size == Size4K && b.freeBytes > 0:
			// Frames fill the lowest partially used block (a free block
			// is split only when none is), so a run commits a block at a
			// time.
			for b.partFrom < len(b.partial) && b.partial[b.partFrom] == 0 {
				b.partFrom++
			}
			var i int
			if w := b.partFrom; w < len(b.partial) {
				i = w<<6 | bits.TrailingZeros64(b.partial[w])
			} else {
				i = b.takeBlock()
			}
			if i >= len(b.live) {
				b.live = append(b.live, make([]uint16, i+1-len(b.live))...)
			}
			k := min(count-done, framesPerBlock-int(b.live[i]))
			b.live[i] += uint16(k)
			for j := b.leaves + i>>6; j > 0; j >>= 1 {
				b.sum[j] += uint32(k)
			}
			b.setPartial(i, int(b.live[i]) < framesPerBlock)
			b.freeBytes -= uint64(k) * uint64(Size4K)
			done += k
		case size == Size2M && b.free2M > 0:
			b.held2M = append(b.held2M, uint32(b.takeBlock()))
			b.freeBytes -= uint64(Size2M)
			done++
		case size == Size1G && b.free1G > 0:
			r := 0
			for b.regionFree[r] != blocksPerRegion {
				r++
			}
			b.setRegion(r, false)
			b.held1G = append(b.held1G, uint32(r))
			b.freeBytes -= uint64(Size1G)
			done++
		default:
			return done
		}
	}
	return done
}

// liveFrames is the number of live frames of size on the node.
func (b *blockNode) liveFrames(size PageSize) int {
	switch size {
	case Size4K:
		return int(b.sum[1])
	case Size2M:
		return len(b.held2M)
	}
	return len(b.held1G)
}

// release frees k of the node's live frames of size, chosen uniformly.
func (b *blockNode) release(size PageSize, k int, rng *uint64) {
	b.freeBytes += uint64(k) * uint64(size)
	if size == Size4K {
		b.drop(1, uint32(k), rng)
		return
	}
	for ; k > 0; k-- {
		if size == Size2M {
			b.setFree(pickHeld(&b.held2M, rng), true)
		} else {
			b.setRegion(pickHeld(&b.held1G, rng), true)
		}
	}
}

// pickHeld removes and returns a uniformly chosen entry of *l.
func pickHeld(l *[]uint32, rng *uint64) int {
	s := *l
	i := below(rng, uint32(len(s)))
	v := s[i]
	s[i] = s[len(s)-1]
	*l = s[:len(s)-1]
	return int(v)
}

// drop frees k of the live 4 KB frames under tree node j, chosen
// uniformly: the left subtree's share is hypergeometric and each side
// recurses with its share; in a group, each block's share is drawn in
// turn, conditional on the blocks after it.
func (b *blockNode) drop(j int, k uint32, rng *uint64) {
	n := b.sum[j]
	b.sum[j] = n - k
	if j < b.leaves {
		kl := hypergeometric(rng, n, b.sum[2*j], k)
		if kl > 0 {
			b.drop(2*j, kl, rng)
		}
		if kl < k {
			b.drop(2*j+1, k-kl, rng)
		}
		return
	}
	for i := (j - b.leaves) << 6; k > 0; i++ {
		c := uint32(b.live[i])
		x := hypergeometric(rng, n, c, k)
		n, k, b.live[i] = n-c, k-x, uint16(c-x)
		if x == c && c > 0 {
			b.setPartial(i, false)
			b.setFree(i, true)
		} else if x > 0 && int(c) == framesPerBlock {
			b.setPartial(i, true)
		}
	}
}

// step advances the LCG and returns its new state.
func step(rng *uint64) uint64 {
	*rng = *rng*6364136223846793005 + 1442695040888963407
	return *rng
}

// below draws uniformly from [0, n).
func below(rng *uint64, n uint32) uint32 {
	hi, _ := bits.Mul64(step(rng), uint64(n))
	return uint32(hi)
}

// hypergeometric draws how many of draws picks, made without
// replacement from total items of which good are marked, are marked.
func hypergeometric(rng *uint64, total, good, draws uint32) uint32 {
	switch {
	case draws == 0 || good == 0:
		return 0
	case draws == 1 && below(rng, total) < good:
		return 1
	case draws == 1:
		return 0
	case good == total:
		return draws
	case draws == total:
		return good
	case draws > total/2: // the marked items the complementary draw leaves
		return good - hypergeometric(rng, total, good, total-draws)
	case good > total/2:
		return draws - hypergeometric(rng, total, total-good, draws)
	}
	// Inversion over the support [0, min(draws, good)] from the mode
	// upward, then downward, weighting by the pmf ratio p(x+1)/p(x) and
	// cutting each tail below 1e-20 of the mode: one walk sums the
	// weights, a second walks the same terms against a scaled uniform.
	N, K, n := float64(total), float64(good), float64(draws)
	hi, mode := math.Min(n, K), math.Floor((n+1)*(K+1)/(N+2))
	ratio := func(x float64) float64 { return (K - x) * (n - x) / ((x + 1) * (N - K - n + x + 1)) }
	walk := func(u float64) (sum, x float64) {
		if sum = 1; u < sum {
			return sum, mode
		}
		for x, w := mode, 1.0; x < hi && w > 1e-20; x++ {
			if w *= ratio(x); u < sum+w {
				return sum + w, x + 1
			}
			sum += w
		}
		for x, w := mode, 1.0; x > 0 && w > 1e-20; x-- {
			if w /= ratio(x - 1); u < sum+w {
				return sum + w, x - 1
			}
			sum += w
		}
		return sum, mode
	}
	sum, _ := walk(math.Inf(1))
	_, x := walk(float64(step(rng)>>11) * 0x1p-53 * sum)
	return uint32(x)
}
