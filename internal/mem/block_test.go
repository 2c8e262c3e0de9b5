package mem

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"repro/internal/topo"
)

// checkInvariants verifies the block model's bookkeeping on every node
// of s against a recount from the per-block state: tree sums, the
// free/partial bitmaps, per-region and per-node free-block counters,
// and free + live bytes summing to the node's DRAM.
func checkInvariants(t *testing.T, s *System) {
	t.Helper()
	for n, b := range s.nodes {
		for j := b.leaves - 1; j > 0; j-- {
			if b.sum[j] != b.sum[2*j]+b.sum[2*j+1] {
				t.Fatalf("node %d: tree node %d sums %d, children %d+%d", n, j, b.sum[j], b.sum[2*j], b.sum[2*j+1])
			}
		}
		liveOf := func(i int) uint32 {
			if i < len(b.live) {
				return uint32(b.live[i])
			}
			return 0
		}
		for g := 0; g < b.leaves; g++ {
			var s uint32
			for i := g * 64; i < (g+1)*64; i++ {
				s += liveOf(i)
			}
			if s != b.sum[b.leaves+g] {
				t.Fatalf("node %d: group %d sums %d, blocks hold %d", n, g, b.sum[b.leaves+g], s)
			}
		}
		held := make(map[int]bool)
		for _, i := range b.held2M {
			held[int(i)] = true
		}
		for _, r := range b.held1G {
			for i := int(r) * blocksPerRegion; i < (int(r)+1)*blocksPerRegion; i++ {
				held[i] = true
			}
		}
		regionFree := make([]int, len(b.regionFree))
		free2M, liveBytes := 0, uint64(0)
		for i := 0; i < len(b.free)*64; i++ {
			c := int(liveOf(i))
			if i >= b.blocks {
				if c != 0 {
					t.Fatalf("node %d: padding leaf %d holds %d frames", n, i, c)
				}
				continue
			}
			isFree := b.free[i>>6]&(1<<(i&63)) != 0
			isPartial := b.partial[i>>6]&(1<<(i&63)) != 0
			switch {
			case c > framesPerBlock:
				t.Fatalf("node %d block %d: %d live frames", n, i, c)
			case isFree && (c != 0 || held[i]):
				t.Fatalf("node %d block %d: free but %d live frames, held %v", n, i, c, held[i])
			case isPartial != (c > 0 && c < framesPerBlock):
				t.Fatalf("node %d block %d: partial bit %v with %d live frames", n, i, isPartial, c)
			case isPartial && i>>6 < b.partFrom:
				t.Fatalf("node %d block %d: partial below cursor word %d", n, i, b.partFrom)
			case !isFree && c == 0 && !held[i]:
				t.Fatalf("node %d block %d: neither free, used nor held", n, i)
			case c > 0 && held[i]:
				t.Fatalf("node %d block %d: held whole and by %d 4K frames", n, i, c)
			}
			if isFree {
				regionFree[i/blocksPerRegion]++
				free2M++
			}
			liveBytes += uint64(c) * uint64(Size4K)
		}
		free1G := 0
		for r, f := range regionFree {
			if f != b.regionFree[r] {
				t.Fatalf("node %d region %d: counter %d, bitmap %d", n, r, b.regionFree[r], f)
			}
			if f == blocksPerRegion {
				free1G++
			}
		}
		if free2M != b.free2M || free1G != b.free1G {
			t.Fatalf("node %d: counters 2M=%d 1G=%d, recount %d %d", n, b.free2M, b.free1G, free2M, free1G)
		}
		liveBytes += uint64(len(b.held2M))*uint64(Size2M) + uint64(len(b.held1G))*uint64(Size1G)
		if b.freeBytes+liveBytes != s.Machine.DRAMPerNode {
			t.Fatalf("node %d: free %d + live %d != DRAM %d", n, b.freeBytes, liveBytes, s.Machine.DRAMPerNode)
		}
	}
}

// tinyMachine keeps oracle scans cheap: 4 nodes with 4 MB of DRAM each
// (two 2 MB blocks, 1024 frames), small enough for op streams to fill
// and fragment.
func tinyMachine() *topo.Machine {
	hops := [][]int{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}}
	return topo.New("tiny", 4, 1, 4<<20, 1e9, hops)
}

// gigMachine has one full 1 GB region and a short 4 MB one per node, so
// op streams reach 1G allocations and the partial-region placement rule.
func gigMachine() *topo.Machine {
	hops := [][]int{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}}
	return topo.New("gig", 4, 1, 1<<30+4<<20, 1e9, hops)
}

func TestBuddyFreshNodeMaxOrder(t *testing.T) {
	s := newSys()
	want := int(s.Machine.DRAMPerNode / uint64(Size1G))
	for n := 0; n < s.Machine.Nodes; n++ {
		if got := s.Free1GBlocks(topo.NodeID(n)); got != want {
			t.Fatalf("node %d: fresh node has %d free 1G blocks, want %d", n, got, want)
		}
		if got := s.Free2MBlocks(topo.NodeID(n)); got != want*blocksPerRegion {
			t.Fatalf("node %d: fresh node has %d free 2M blocks, want %d", n, got, want*blocksPerRegion)
		}
		if !s.FreeContiguous(topo.NodeID(n), Size1G) {
			t.Fatal("fresh node must have 1G contiguity")
		}
	}
	checkInvariants(t, s)
}

func TestBuddyCoalesceRestoresMaxOrder(t *testing.T) {
	s := NewSystem(gigMachine(), DefaultLatencyParams())
	// Shatter node 0 completely into 4 KB frames, then free everything:
	// every block and the 1 GB region must read wholly free again.
	frames := int(s.Machine.DRAMPerNode / uint64(Size4K))
	if got := s.AllocateRun(0, Size4K, frames); got != frames {
		t.Fatalf("allocated %d of %d frames", got, frames)
	}
	if s.FreeBytes(0) != 0 || s.Free2MBlocks(0) != 0 || s.Free1GBlocks(0) != 0 {
		t.Fatal("node should be full")
	}
	checkInvariants(t, s)
	for i := 0; i < 1000; i++ {
		if err := s.Free(0, Size4K); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if err := s.FreeRun(0, Size4K, frames-1000); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Free2MBlocks(0), frames/framesPerBlock; got != want || s.Free1GBlocks(0) != 1 {
		t.Fatalf("after full free: %d free 2M blocks (want %d), %d free 1G", got, want, s.Free1GBlocks(0))
	}
	checkInvariants(t, s)
}

// churnFragments is the signature fragmentation sequence on node 0 of
// a tiny-machine allocator: fill it with 4 KB frames, then free half of
// them at random. FreeBytes reaches a full 2 MB block's worth, but the
// freed frames are scattered, so no 2 MB block is wholly free.
func churnFragments(t *testing.T, alloc func(PageSize) error, free func(PageSize) error,
	freeBytes func() uint64, contiguous func(PageSize) bool) {
	t.Helper()
	const frames = 1024
	for i := 0; i < frames; i++ {
		if err := alloc(Size4K); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames/2; i++ {
		if err := free(Size4K); err != nil {
			t.Fatal(err)
		}
	}
	if freeBytes() < uint64(Size2M) {
		t.Fatalf("free bytes %d below 2M; test sequence broken", freeBytes())
	}
	if contiguous(Size2M) {
		t.Fatal("scattered frees left a whole 2M block free; fragmentation model broken")
	}
	if err := alloc(Size2M); !errors.Is(err, ErrFragmented) {
		t.Fatalf("2M alloc on fragmented node returned %v, want ErrFragmented", err)
	}
	// 4 KB allocation still succeeds: capacity is there, contiguity isn't.
	if err := alloc(Size4K); err != nil {
		t.Fatalf("4K alloc should succeed on fragmented node: %v", err)
	}
}

func TestBuddyChurnFragments(t *testing.T) {
	s := NewSystem(tinyMachine(), DefaultLatencyParams())
	churnFragments(t,
		func(z PageSize) error { return s.Allocate(0, z) },
		func(z PageSize) error { return s.Free(0, z) },
		func() uint64 { return s.FreeBytes(0) },
		func(z PageSize) bool { return s.FreeContiguous(0, z) })
	checkInvariants(t, s)
}

func TestBuddySplitInPlace(t *testing.T) {
	// vm.SplitChunk relies on Free(2M) + 512×Allocate(4K) never failing,
	// and SplitGiant on Free(1G) + 512×Allocate(2M): freeing a block
	// guarantees its constituents are allocatable on the same node.
	s := newSys()
	// Fill node 1 completely so the reconstituted frames can only come
	// from the freed block itself.
	for s.FreeBytes(1) > 0 {
		if err := s.Allocate(1, Size1G); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(1, Size1G); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := s.Allocate(1, Size2M); err != nil {
			t.Fatalf("2M alloc %d after 1G free: %v", i, err)
		}
	}
	if err := s.Free(1, Size2M); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := s.Allocate(1, Size4K); err != nil {
			t.Fatalf("4K alloc %d after 2M free: %v", i, err)
		}
	}
	checkInvariants(t, s)
}

func TestPlacementPrefersPartialRegion(t *testing.T) {
	// Two regions: region 0 partly held by a 2M allocation, region 1
	// wholly free. Further 2M allocations and 4 KB block splits must stay
	// in region 0 and keep the 1 GB block free until region 0 is full.
	s := NewSystem(topo.New("two", 1, 1, 2<<30, 1e9, [][]int{{0}}), DefaultLatencyParams())
	if err := s.Allocate(0, Size2M); err != nil {
		t.Fatal(err)
	}
	if s.Free1GBlocks(0) != 1 {
		t.Fatalf("one 2M allocation left %d free 1G blocks, want 1", s.Free1GBlocks(0))
	}
	if got := s.AllocateRun(0, Size4K, 510*framesPerBlock+1); got != 510*framesPerBlock+1 {
		t.Fatal("4K run fell short")
	}
	if s.Free1GBlocks(0) != 1 || s.Free2MBlocks(0) != blocksPerRegion {
		t.Fatalf("4K frames split the free region: %d free 1G, %d free 2M", s.Free1GBlocks(0), s.Free2MBlocks(0))
	}
	if err := s.Allocate(0, Size2M); err != nil || s.Free1GBlocks(0) != 0 {
		t.Fatalf("2M allocation with region 0 full: %v, %d free 1G", err, s.Free1GBlocks(0))
	}
	checkInvariants(t, s)
}

// applyOps replays a fuzz-provided op stream against the block model
// and the frame-exact oracle on machine m, checking after every op that
// the byte ledgers and out-of-memory outcomes agree. Each op byte
// encodes: bits 0-1 node, bits 2-3 size class (3 = 2M), bit 4
// free-vs-alloc, bit 5 a 64-frame 4K run instead of one frame.
//
// Fragmentation outcomes may differ: the two models pick different
// victims, so a huge-page allocation can find a whole block in one and
// not the other. When that happens the allocation is undone on the side
// that succeeded (a free of the same size, so the ledgers stay equal).
func applyOps(t *testing.T, m *topo.Machine, ops []byte) {
	t.Helper()
	s := NewSystem(m, DefaultLatencyParams())
	ref := newRefSystem(m)
	sizes := []PageSize{Size4K, Size2M, Size1G, Size2M}
	liveCount := make(map[[2]int]int)
	for opi, op := range ops {
		n := topo.NodeID(op & 3)
		z := sizes[(op>>2)&3]
		key := [2]int{int(n), sizeClass(z)}
		count := 1
		if z == Size4K && op&32 != 0 {
			count = 64
		}
		if op&16 != 0 {
			err := s.FreeRun(n, z, count)
			for i := 0; i < min(count, liveCount[key]); i++ {
				if err := ref.Free(n, z); err != nil {
					t.Fatalf("op %d: oracle free: %v", opi, err)
				}
			}
			if liveCount[key] < count {
				if !errors.Is(err, ErrOverFree) {
					t.Fatalf("op %d: over-free of %d with %d live returned %v, want ErrOverFree", opi, count, liveCount[key], err)
				}
				liveCount[key] = 0
			} else if err != nil {
				t.Fatalf("op %d: live free failed: %v", opi, err)
			} else {
				liveCount[key] -= count
			}
		} else {
			for i := 0; i < count; i++ {
				err, rerr := s.Allocate(n, z), ref.Allocate(n, z)
				if errors.Is(err, ErrOutOfMemory) != errors.Is(rerr, ErrOutOfMemory) {
					t.Fatalf("op %d: out-of-memory disagrees: model %v, oracle %v", opi, err, rerr)
				}
				switch {
				case err == nil && rerr == nil:
					liveCount[key]++
				case err == nil:
					if err := s.Free(n, z); err != nil {
						t.Fatal(err)
					}
				case rerr == nil:
					if err := ref.Free(n, z); err != nil {
						t.Fatal(err)
					}
				}
				if err != nil && !errors.Is(err, ErrOutOfMemory) && !errors.Is(err, ErrFragmented) {
					t.Fatalf("op %d: unexpected error %v", opi, err)
				}
				if errors.Is(err, ErrFragmented) && (z == Size4K || s.FreeBytes(n) < uint64(z)) {
					t.Fatalf("op %d: ErrFragmented for %s with %d free bytes", opi, z, s.FreeBytes(n))
				}
			}
		}
		if s.FreeBytes(n) != ref.FreeBytes(n) || s.Allocated(n) != ref.Allocated(n) {
			t.Fatalf("op %d: node %d ledgers disagree: free %d/%d, allocated %d/%d",
				opi, n, s.FreeBytes(n), ref.FreeBytes(n), s.Allocated(n), ref.Allocated(n))
		}
		if s.FreeBytes(n)+s.Allocated(n) != m.DRAMPerNode {
			t.Fatalf("op %d: node %d conservation broken", opi, n)
		}
	}
	checkInvariants(t, s)
	checkRefInvariants(t, ref)
	// Draining every live allocation must leave every block and every
	// full 1 GB region wholly free.
	for key, c := range liveCount {
		z := []PageSize{Size4K, Size2M, Size1G}[key[1]]
		if err := s.FreeRun(topo.NodeID(key[0]), z, c); err != nil {
			t.Fatalf("drain free: %v", err)
		}
	}
	for n := 0; n < m.Nodes; n++ {
		id := topo.NodeID(n)
		if s.Allocated(id) != 0 || s.Free2MBlocks(id) != int(m.DRAMPerNode/uint64(Size2M)) ||
			s.Free1GBlocks(id) != int(m.DRAMPerNode/uint64(Size1G)) {
			t.Fatalf("node %d not wholly free after drain: %d allocated, %d free 2M, %d free 1G",
				n, s.Allocated(id), s.Free2MBlocks(id), s.Free1GBlocks(id))
		}
		if err := s.Free(id, Size4K); !errors.Is(err, ErrOverFree) {
			t.Fatalf("node %d: free after drain returned %v, want ErrOverFree", n, err)
		}
	}
	checkInvariants(t, s)
}

// FuzzAllocator runs random alloc/free streams against the block model
// and the frame-exact oracle (buddy_ref_test.go) on a tiny machine that
// the stream can fill and fragment and on a 1 GB-capable one, then
// replays the churn-then-2M fragmentation scenario on both models.
// `go test -fuzz=FuzzAllocator -fuzztime=20s ./internal/mem` runs in CI
// as a smoke step.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0, 4, 8, 16, 20, 24})
	f.Add([]byte{0, 0, 0, 16, 4, 4, 20, 8, 24, 24})
	f.Add([]byte{8, 8, 8, 8, 24})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, tinyMachine(), ops)
		applyOps(t, gigMachine(), ops)
		s, ref := NewSystem(tinyMachine(), DefaultLatencyParams()), newRefSystem(tinyMachine())
		churnFragments(t,
			func(z PageSize) error { return s.Allocate(1, z) },
			func(z PageSize) error { return s.Free(1, z) },
			func() uint64 { return s.FreeBytes(1) },
			func(z PageSize) bool { return s.FreeContiguous(1, z) })
		churnFragments(t,
			func(z PageSize) error { return ref.Allocate(1, z) },
			func(z PageSize) error { return ref.Free(1, z) },
			func() uint64 { return ref.FreeBytes(1) },
			func(z PageSize) bool { return ref.FreeContiguous(1, z) })
	})
}

func TestBuddyFuzzSeeds(t *testing.T) {
	// The fuzz corpus seeds, plus streams that fill a tiny node with
	// 4K runs and churn it, double as deterministic regression tests.
	fill := make([]byte, 40)
	for i := range fill {
		fill[i] = 32 // 64-frame 4K runs on node 0
	}
	churn := append(append([]byte{}, fill...), 48, 48, 48, 4, 48, 48, 4, 24, 24)
	for _, ops := range [][]byte{
		{0, 4, 8, 16, 20, 24},
		{0, 0, 0, 16, 4, 4, 20, 8, 24, 24},
		{8, 8, 8, 8, 24},
		{},
		fill,
		churn,
	} {
		applyOps(t, tinyMachine(), ops)
		applyOps(t, gigMachine(), ops)
	}
}

// TestFreeRunDistribution checks that FreeRun's one-shot draw has the
// distribution of k uniform sequential picks. Over many seeds on a
// filled node of three block groups (so the draw splits across the tree
// and within groups), each block's freed count must have the
// hypergeometric mean and variance; and on a one-group node, the number
// of 2 MB blocks a near-total teardown leaves wholly free must match
// the frame-exact oracle's seed average.
func TestFreeRunDistribution(t *testing.T) {
	const (
		seeds  = 256
		blocks = 192
		frames = blocks * framesPerBlock
		k      = 60000
	)
	seedOf := func(i int) uint64 { return 0x9E3779B97F4A7C15 ^ uint64(i+1)*0xBF58476D1CE4E5B9 }
	big := topo.New("groups", 1, 1, blocks*uint64(Size2M), 1e9, [][]int{{0}})
	var sum, sumSq [blocks]float64
	for i := 0; i < seeds; i++ {
		s := NewSystem(big, DefaultLatencyParams())
		s.rng = seedOf(i)
		s.AllocateRun(0, Size4K, frames)
		if err := s.FreeRun(0, Size4K, k); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s)
		for b := 0; b < blocks; b++ {
			x := float64(framesPerBlock) - float64(s.nodes[0].live[b])
			sum[b] += x
			sumSq[b] += x * x
		}
	}
	p := float64(framesPerBlock) / float64(frames)
	mean := float64(k) * p
	variance := float64(k) * p * (1 - p) * float64(frames-k) / float64(frames-1)
	// 5 standard errors keeps the chance that any of the 384 checks
	// fails on a correct sampler near 1e-4.
	for b := 0; b < blocks; b++ {
		got := sum[b] / seeds
		v := (sumSq[b] - seeds*got*got) / (seeds - 1)
		if se := math.Sqrt(variance / seeds); math.Abs(got-mean) > 5*se {
			t.Errorf("block %d: mean freed %.2f, hypergeometric %.2f (SE %.2f)", b, got, mean, se)
		}
		// The sample variance of near-normal draws has relative SE
		// sqrt(2/(n-1)).
		if rel := math.Sqrt(2.0 / (seeds - 1)); math.Abs(v/variance-1) > 5*rel {
			t.Errorf("block %d: variance of freed %.2f, hypergeometric %.2f", b, v, variance)
		}
	}

	// Keep 32 random frames of a filled 16-block node: about two blocks
	// end up wholly free, and the count depends on the joint
	// distribution of the victims, not only on per-block marginals.
	const keep, small = 32, 16 * framesPerBlock
	m := topo.New("small", 1, 1, 16*uint64(Size2M), 1e9, [][]int{{0}})
	wholly := func(count func(i int) int) (mean, variance float64) {
		var s1, s2 float64
		for i := 0; i < seeds; i++ {
			c := float64(count(i))
			s1 += c
			s2 += c * c
		}
		mean = s1 / seeds
		return mean, (s2 - seeds*mean*mean) / (seeds - 1)
	}
	mMean, mVar := wholly(func(i int) int {
		s := NewSystem(m, DefaultLatencyParams())
		s.rng = seedOf(i)
		s.AllocateRun(0, Size4K, small)
		if err := s.FreeRun(0, Size4K, small-keep); err != nil {
			t.Fatal(err)
		}
		return s.Free2MBlocks(0)
	})
	rMean, rVar := wholly(func(i int) int {
		ref := newRefSystem(m)
		ref.rng = seedOf(i)
		for f := 0; f < small; f++ {
			if err := ref.Allocate(0, Size4K); err != nil {
				t.Fatal(err)
			}
		}
		for f := 0; f < small-keep; f++ {
			if err := ref.Free(0, Size4K); err != nil {
				t.Fatal(err)
			}
		}
		b := ref.nodes[0]
		whole := 0
		for o := order2M; o <= maxOrder; o++ {
			whole += b.nfree[o] << uint(o-order2M)
		}
		return whole
	})
	se := math.Sqrt(mVar/seeds + rVar/seeds)
	t.Logf("wholly freed 2M blocks: model %.3f, oracle %.3f (SE %.3f)", mMean, rMean, se)
	if math.Abs(mMean-rMean) > 3*se {
		t.Errorf("wholly freed 2M blocks: model mean %.3f, oracle %.3f, difference beyond 3 SE (%.3f)", mMean, rMean, se)
	}
}

func TestHypergeometricMoments(t *testing.T) {
	// The inversion sampler (draws > 16 after the symmetry reductions)
	// must have the hypergeometric mean and variance at large
	// populations, where it carries arena teardowns.
	for _, c := range []struct{ total, good, draws uint32 }{
		{1 << 22, 1 << 21, 300000},
		{1 << 22, 3000000, 3900000},
		{1024, 512, 80},
		{100, 7, 40},
	} {
		rng := uint64(0x9E3779B97F4A7C15) + uint64(c.draws)
		const trials = 4000
		var s1, s2 float64
		for i := 0; i < trials; i++ {
			x := float64(hypergeometric(&rng, c.total, c.good, c.draws))
			s1 += x
			s2 += x * x
		}
		N, K, n := float64(c.total), float64(c.good), float64(c.draws)
		mean := n * K / N
		variance := n * K / N * (1 - K/N) * (N - n) / (N - 1)
		m := s1 / trials
		v := (s2 - trials*m*m) / (trials - 1)
		if math.Abs(m-mean) > 4*math.Sqrt(variance/trials) {
			t.Errorf("%+v: mean %.3f, want %.3f", c, m, mean)
		}
		if math.Abs(v/variance-1) > 4*math.Sqrt(2.0/(trials-1)) {
			t.Errorf("%+v: variance %.3f, want %.3f", c, v, variance)
		}
	}
}

func TestBelowUniform(t *testing.T) {
	// below must cover [0, n) for n that is not a power of two.
	rng := uint64(1)
	var seen uint64
	for i := 0; i < 2000; i++ {
		x := below(&rng, 37)
		if x >= 37 {
			t.Fatalf("below(37) = %d", x)
		}
		seen |= 1 << x
	}
	if bits.OnesCount64(seen) != 37 {
		t.Fatalf("below(37) reached %d of 37 values", bits.OnesCount64(seen))
	}
}
