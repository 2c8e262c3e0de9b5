package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/topo"
)

// Batched allocation faulting (DESIGN.md §4.11). The engine's allocation
// phase walks each thread's precomputed, ascending first-touch page list;
// consecutive touches overwhelmingly land in the same 2 MB chunk and
// resolve identically (same home node, same page size, same fault cost
// under the epoch-constant lagged lock contention). ClassifyAllocRun
// recognizes such a run without mutating anything; the engine prices it
// with one latency lookup and decides how many touches its time slice
// affords; the ApplyAlloc* entry points then commit exactly that many
// touches in one pass — one buddy transaction, one accounting update —
// with integer counters summed and float accumulators advanced by the
// same per-touch add sequence, so the run-level path is byte-identical
// to per-page Region.Access calls (sim's TestReferenceMatrix).

// AllocRunKind classifies a run of allocation-phase first-touches.
type AllocRunKind uint8

const (
	// AllocRunHit: the pages are already mapped; the touches take no fault.
	AllocRunHit AllocRunKind = iota
	// AllocRunFault4K: unmapped 4 KB first-touches, each faulting one
	// frame onto the run's node.
	AllocRunFault4K
	// AllocRunFault2M: a single first touch claiming the whole chunk with
	// a 2 MB page (N is always 1; once mapped, the rest of the chunk
	// re-classifies as an AllocRunHit).
	AllocRunFault2M
)

// AllocRun describes a maximal batchable prefix of a thread's pending
// first-touch pages: N touches inside one chunk that all resolve to the
// same (kind, node, size), so one pricing covers every touch.
type AllocRun struct {
	N    int
	Kind AllocRunKind
	Node topo.NodeID
	Size mem.PageSize
}

// runInChunk counts the leading pages that fall in chunk ci.
func runInChunk(pages []uint32, ci int) int {
	k := 1
	for k < len(pages) && int(pages[k])>>(chunkShift-subShift) == ci {
		k++
	}
	return k
}

// ClassifyAllocRun inspects the head of a thread's pending first-touch
// list (ascending 4 KB page indices within r) and returns the maximal
// leading run that one batched operation can commit. It mutates nothing:
// the caller decides how much of the run its budget affords and commits
// via the matching ApplyAlloc* entry point.
//
// The classification stays valid for the whole run because the only
// mutations between classify and apply are the run's own touches, each
// of which maps a distinct page of the same chunk without changing the
// chunk's state dispatch (a 2 MB claim is its own single-touch run).
func (r *Region) ClassifyAllocRun(core topo.CoreID, pages []uint32) AllocRun {
	p0 := int(pages[0])
	ci := p0 >> (chunkShift - subShift)
	c := &r.chunks[ci]
	switch c.state {
	case state2M:
		return AllocRun{N: runInChunk(pages, ci), Kind: AllocRunHit, Node: c.node, Size: mem.Size2M}
	case state1G:
		head := &r.chunks[c.giantHead]
		return AllocRun{N: runInChunk(pages, ci), Kind: AllocRunHit, Node: head.node, Size: mem.Size1G}
	case state4K:
		if n := c.subNode[p0&(SubsPerChunk-1)]; n != unmappedNode {
			// Mapped subs of a split chunk (promotion can run mid-alloc, so
			// hits here are real): extend while the home node holds.
			k := 1
			for k < len(pages) {
				p := int(pages[k])
				if p>>(chunkShift-subShift) != ci || c.subNode[p&(SubsPerChunk-1)] != n {
					break
				}
				k++
			}
			return AllocRun{N: k, Kind: AllocRunHit, Node: topo.NodeID(n), Size: mem.Size4K}
		}
		if r.faultSize(ci) == mem.Size2M {
			// A fully-unmapped split chunk can take a 2 MB fault again.
			return AllocRun{N: 1, Kind: AllocRunFault2M, Node: r.Space.placeNode(core, mem.Size2M), Size: mem.Size2M}
		}
		node := r.Space.placeNode(core, mem.Size4K)
		k := 1
		for k < len(pages) {
			p := int(pages[k])
			if p>>(chunkShift-subShift) != ci || c.subNode[p&(SubsPerChunk-1)] != unmappedNode {
				break
			}
			k++
		}
		return AllocRun{N: k, Kind: AllocRunFault4K, Node: node, Size: mem.Size4K}
	default: // stateUnmapped
		if r.faultSize(ci) == mem.Size2M {
			return AllocRun{N: 1, Kind: AllocRunFault2M, Node: r.Space.placeNode(core, mem.Size2M), Size: mem.Size2M}
		}
		return AllocRun{N: runInChunk(pages, ci), Kind: AllocRunFault4K, Node: r.Space.placeNode(core, mem.Size4K), Size: mem.Size4K}
	}
}

// ApplyAllocHitRun commits k already-mapped first-touches from the head
// of pages (one chunk, per ClassifyAllocRun) — the batched equivalent of
// k Region.Access calls on mapped pages.
//
//lpnuma:noalloc span-commit entry point: runs once per allocation run on the alloc-phase hot path
func (r *Region) ApplyAllocHitRun(thread int, pages []uint32, k int) {
	ci := int(pages[0]) >> (chunkShift - subShift)
	c := &r.chunks[ci]
	tbit := uint64(1) << uint(thread&63)
	switch c.state {
	case state2M:
		c.accesses += uint64(k)
		c.threadMask |= tbit
	case state1G:
		head := &r.chunks[c.giantHead]
		head.accesses += uint64(k)
		head.threadMask |= tbit
	default: // state4K, mapped subs
		for _, p := range pages[:k] {
			sub := int(p) & (SubsPerChunk - 1)
			c.subAcc[sub]++
			c.subMask[sub] |= tbit
		}
		c.accesses += uint64(k)
	}
}

// ApplyAllocFault4KRun commits k first-touch 4 KB faults from the head
// of pages (one chunk, all placed on node, per ClassifyAllocRun) in one
// buddy transaction. costEach is this epoch's constant 4 KB fault cost
// (FaultCostFor); it is charged k times sequentially so the per-core
// float accumulation matches the per-page path bit for bit. The caller
// must have verified node holds k free 4 KB frames — with that, the run
// cannot hit the fault path's capacity fallback.
//
//lpnuma:noalloc span-fault entry point: runs once per allocation run on the alloc-phase hot path
func (r *Region) ApplyAllocFault4KRun(core topo.CoreID, thread int, node topo.NodeID, pages []uint32, k int, costEach float64) {
	s := r.Space
	fc := s.faultCyclesPerCore[core]
	for i := 0; i < k; i++ {
		fc += costEach
	}
	s.faultCyclesPerCore[core] = fc
	s.markFaulter(core)
	if !r.ptHomeSet {
		r.ptHome = s.Machine.NodeOf(core)
		r.ptHomeSet = true
	}
	if got := s.Phys.AllocateRun(node, mem.Size4K, k); got != k {
		//lpnuma:alloc-ok panic path: the caller's free-frame pre-check was violated
		panic(fmt.Sprintf("vm: batched 4K fault run got %d of %d frames on node %d", got, k, node))
	}
	ci := int(pages[0]) >> (chunkShift - subShift)
	c := &r.chunks[ci]
	c.ensureSubs()
	if c.state == stateUnmapped {
		c.state = state4K
	}
	tbit := uint64(1) << uint(thread&63)
	for _, p := range pages[:k] {
		sub := int(p) & (SubsPerChunk - 1)
		c.mapSub(sub, node)
		c.subAcc[sub]++
		c.subMask[sub] |= tbit
	}
	c.accesses += uint64(k)
	s.faultCount4K += uint64(k)
	r.count4K += k
	r.gen += uint64(k) // k mapping mutations
}

// ApplyAllocFault2M commits the single first touch that claims a chunk
// with a 2 MB page on node (pre-checked contiguous-free by the caller,
// so the fragmentation fallback cannot trigger). costEach is this
// epoch's constant 2 MB fault cost.
//
//lpnuma:noalloc span-fault entry point: runs once per allocation run on the alloc-phase hot path
func (r *Region) ApplyAllocFault2M(core topo.CoreID, thread int, page uint32, node topo.NodeID, costEach float64) {
	s := r.Space
	s.faultCyclesPerCore[core] += costEach
	s.markFaulter(core)
	if !r.ptHomeSet {
		r.ptHome = s.Machine.NodeOf(core)
		r.ptHomeSet = true
	}
	if err := s.Phys.Allocate(node, mem.Size2M); err != nil {
		//lpnuma:alloc-ok panic path: the caller's contiguous-free pre-check was violated
		panic(fmt.Sprintf("vm: batched 2M fault on node %d: %v", node, err))
	}
	ci := int(page) >> (chunkShift - subShift)
	c := &r.chunks[ci]
	c.state = state2M
	c.node = node
	s.faultCount2M++
	r.count2M++
	r.mutated()
	c.accesses++
	c.threadMask |= uint64(1) << uint(thread&63)
}
