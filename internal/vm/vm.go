// Package vm implements the virtual-memory subsystem the paper's policies
// manipulate: address spaces composed of regions, backed by 4 KB, 2 MB or
// 1 GB pages, with first-touch NUMA allocation, page faults (including the
// page-table-lock contention that makes allocation phases expensive under
// small pages, §3.2), page migration, interleaving, splitting (demotion)
// and promotion.
//
// Mappings are tracked in 2 MB-aligned "chunks": a chunk is either backed
// by a single 2 MB page, by up to 512 individually-placed 4 KB pages, or is
// one slice of a 1 GB page. Access counts, the set of touching threads and
// home nodes are recorded at the mapping granularity, which is exactly the
// granularity at which the paper's metrics (PAMUP, NHP, PSP) are defined.
package vm

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/topo"
)

// SubsPerChunk is the number of 4 KB pages in a 2 MB chunk.
const SubsPerChunk = 512

// ChunksPerGiant is the number of 2 MB chunks in a 1 GB page.
const ChunksPerGiant = 512

// chunkShift and subShift turn byte offsets into chunk and 4 KB-page
// indices with plain shifts on the access fast path.
const (
	chunkShift = 21 // log2(mem.Size2M)
	subShift   = 12 // log2(mem.Size4K)
)

// Compile-time guards tying the shifts to the page-size constants.
var (
	_ [1]struct{} = [uint64(mem.Size2M) >> chunkShift]struct{}{}
	_ [1]struct{} = [uint64(mem.Size4K) >> subShift]struct{}{}
)

// chunkState encodes how a chunk is currently backed.
type chunkState uint8

const (
	stateUnmapped chunkState = iota
	state2M                  // one 2 MB page on chunk.node
	state4K                  // individually placed 4 KB pages in sub arrays
	state1G                  // part of a 1 GB page; head chunk holds accounting
)

// unmappedNode marks an unmapped 4 KB slot in a split chunk.
const unmappedNode = 0xFF

// chunk is the per-2MB bookkeeping record.
type chunk struct {
	state chunkState
	node  topo.NodeID // home node for state2M; head node for state1G

	giantHead int // index of the 1 GB head chunk when state1G

	// 4 KB bookkeeping, allocated lazily when the chunk is split or
	// first mapped with small pages.
	subNode []uint8 // home node per 4 KB page, unmappedNode when absent
	// mapped counts the non-unmappedNode entries of subNode incrementally
	// (mappedSubs sits on the fault and promotion paths).
	mapped int32

	// Ground-truth access accounting at mapping granularity.
	accesses   uint64
	threadMask uint64
	subAcc     []uint32
	subMask    []uint64

	// subRuns caches the maximal same-node mapped runs of a split chunk
	// for Spans: the placement census re-walks every region whose Gen
	// moved, but most chunks of that region did not change, and replaying
	// a handful of coalesced runs is far cheaper than scanning 512 slots.
	// Invalidated (runsOK cleared) by every subNode write — mapSub,
	// Unmap's direct clear, and PromoteChunk's teardown. Replaying runs
	// through Spans' emit coalescer produces the identical visit sequence
	// the per-sub scan would, so census floats are byte-identical.
	subRuns []subRun
	runsOK  bool
}

// subRun is one maximal same-node mapped run of a split chunk:
// 4 KB slots [lo, hi) all mapped on node.
type subRun struct {
	node   uint8
	lo, hi uint16
}

// buildSubRuns recompresses subNode into the cached run list.
func (c *chunk) buildSubRuns() {
	c.subRuns = c.subRuns[:0]
	for sub := 0; sub < SubsPerChunk; {
		n := c.subNode[sub]
		if n == unmappedNode {
			sub++
			continue
		}
		lo := sub
		for sub++; sub < SubsPerChunk && c.subNode[sub] == n; sub++ {
		}
		c.subRuns = append(c.subRuns, subRun{node: n, lo: uint16(lo), hi: uint16(sub)})
	}
	c.runsOK = true
}

func (c *chunk) ensureSubs() {
	if c.subNode == nil {
		c.subNode = make([]uint8, SubsPerChunk) //lpnuma:alloc-ok one-time per-chunk first-touch setup, amortized over the chunk's 512 pages
		for i := range c.subNode {
			c.subNode[i] = unmappedNode
		}
		c.subAcc = make([]uint32, SubsPerChunk)  //lpnuma:alloc-ok one-time per-chunk first-touch setup, amortized over the chunk's 512 pages
		c.subMask = make([]uint64, SubsPerChunk) //lpnuma:alloc-ok one-time per-chunk first-touch setup, amortized over the chunk's 512 pages
	}
}

// mappedSubs returns the number of mapped 4 KB pages of a split chunk,
// maintained incrementally (mapSub / PromoteChunk / SplitChunk) instead
// of scanning the 512 slots on every fault.
func (c *chunk) mappedSubs() int { return int(c.mapped) }

// mapSub points 4 KB slot sub at node, keeping the incremental mapped
// count in sync. It must be the only writer of subNode slots.
func (c *chunk) mapSub(sub int, node topo.NodeID) {
	if c.subNode[sub] == unmappedNode {
		c.mapped++
	}
	c.subNode[sub] = uint8(node)
	c.runsOK = false
}

// Region is a contiguous virtual segment (an "allocation" from the
// workload's point of view: a matrix, a heap arena, a graph).
type Region struct {
	Space *AddrSpace
	ID    int
	Name  string
	Start uint64
	Bytes uint64
	// THPEligible marks anonymous memory that Transparent Huge Pages may
	// back with 2 MB pages; file-backed regions are not eligible (§2.1).
	THPEligible bool

	chunks []chunk

	// Incrementally maintained translation census (MappedPages is on the
	// simulator's per-epoch hot path).
	count4K, count2M, count1G int

	// Page-table residency: the node holding the region's leaf page
	// tables. Linux allocates page-table pages like any other kernel
	// allocation — on the node of the thread that faults first — so the
	// home is established by the region's first mapping and stays there
	// until a policy migrates it (ptHomeSet distinguishes "not yet
	// allocated" from node 0).
	ptHome    topo.NodeID
	ptHomeSet bool

	// gen counts mapping mutations (faults, migrations, splits,
	// promotions). Consumers that derive expensive views of the region's
	// placement — the analytic engine's per-thread home-node
	// distributions (DESIGN.md §4.7) — compare generations to recompute
	// only when the mapping actually changed.
	gen uint64
}

// Gen returns the region's mapping generation; it changes whenever a
// translation is established, re-homed or re-sized.
func (r *Region) Gen() uint64 { return r.gen }

// mutated bumps the mapping generation.
func (r *Region) mutated() { r.gen++ }

// NumChunks returns the number of 2 MB chunks spanning the region.
func (r *Region) NumChunks() int { return len(r.chunks) }

// PTHome returns the node holding the region's leaf page tables and
// whether the page tables exist yet (they are allocated by the region's
// first fault, on the faulting thread's node).
func (r *Region) PTHome() (topo.NodeID, bool) { return r.ptHome, r.ptHomeSet }

// MigratePT moves the region's page tables to node (NUMA-aware
// page-table migration); the caller prices the copy from PTBytes. It
// reports whether anything moved. A move bumps the mapping generation:
// the PT home is priced (walk surcharges, walk-fetch traffic), so
// consumers memoizing on Gen must see it change.
func (r *Region) MigratePT(to topo.NodeID) bool {
	if !r.ptHomeSet || r.ptHome == to {
		return false
	}
	r.ptHome = to
	r.mutated()
	return true
}

// PTBytes returns the region's current leaf page-table footprint: 8
// bytes per live translation, at the granularity each chunk is mapped
// with. Upper levels are ~1/512 of that and ignored.
func (r *Region) PTBytes() uint64 {
	return 8 * uint64(r.count4K+r.count2M+r.count1G)
}

// PageID names one mapped page inside a region: a whole chunk (Sub == -1,
// 2 MB or 1 GB granularity is implied by the chunk state) or a single 4 KB
// page of a split chunk.
type PageID struct {
	Region *Region
	Chunk  int
	Sub    int // -1 when the page is the whole chunk (2M) or a 1G slice
}

// String renders a compact page name for logs.
func (p PageID) String() string {
	if p.Sub < 0 {
		return fmt.Sprintf("%s[c%d]", p.Region.Name, p.Chunk)
	}
	return fmt.Sprintf("%s[c%d.%d]", p.Region.Name, p.Chunk, p.Sub)
}

// FaultParams calibrates the page-fault cost model. Soft faults take CPU
// time and, under concurrent faulting, serialize on page-table locks
// (§3.2 cites Boyd-Wickizer et al.); the contention term uses the number
// of threads that faulted in the previous epoch (lagged, like the other
// contention models).
type FaultParams struct {
	Base4K float64 // service cycles incl. zeroing 4 KB
	Base2M float64 // service cycles incl. zeroing 2 MB
	Base1G float64 // service cycles incl. zeroing 1 GB
	// LockCyclesPerFaulter adds to every fault for each *other* thread
	// concurrently in the fault path.
	LockCyclesPerFaulter float64
	// ReplicaUpdateCycles is the cost of propagating one PTE update to
	// one extra page-table replica (Mitosis-style replication keeps a
	// full page-table copy per node, so every fault rewrites the entry
	// N−1 additional times).
	ReplicaUpdateCycles float64
}

// DefaultFaultParams returns the calibration used in the evaluation.
func DefaultFaultParams() FaultParams {
	return FaultParams{
		Base4K:               1500,
		Base2M:               90000,
		Base1G:               20e6,
		LockCyclesPerFaulter: 400,
		ReplicaUpdateCycles:  250,
	}
}

// AllocSizeFunc decides the page size used to back a faulting address; it
// is how the OS policy layer (THP on/off, hugetlbfs) plugs into the fault
// path.
type AllocSizeFunc func(r *Region, chunkIdx int) mem.PageSize

// AddrSpace is one process's virtual address space.
type AddrSpace struct {
	Machine *topo.Machine
	Phys    *mem.System
	Faults  FaultParams

	// AllocSize picks the backing page size at fault time. The default
	// always answers 4 KB.
	AllocSize AllocSizeFunc

	// PTReplicas, when > 1, is the number of nodes holding a full
	// page-table replica (Mitosis-style): every fault pays
	// (PTReplicas−1)×ReplicaUpdateCycles to keep the copies coherent.
	// 0 (the default) models unreplicated page tables.
	PTReplicas int

	regions []*Region
	nextVA  uint64

	// Fault accounting.
	faultCyclesPerCore []float64
	faultCount4K       uint64
	faultCount2M       uint64
	faultCount1G       uint64

	// Lagged page-table-lock contention: per-core bitset of threads that
	// faulted this epoch, and last epoch's population count.
	faulterBits    []uint64
	laggedFaulters int

	// unmapFreed is Region.Unmap's per-node count of 4 KB frames to
	// return, all zero between calls.
	unmapFreed []int
}

// NewAddrSpace creates an empty address space on machine m backed by phys.
func NewAddrSpace(m *topo.Machine, phys *mem.System, fp FaultParams) *AddrSpace {
	return &AddrSpace{
		Machine:            m,
		Phys:               phys,
		Faults:             fp,
		AllocSize:          func(*Region, int) mem.PageSize { return mem.Size4K },
		nextVA:             1 << 30,
		faultCyclesPerCore: make([]float64, m.TotalCores()),
		faulterBits:        make([]uint64, (m.TotalCores()+63)/64),
		unmapFreed:         make([]int, m.Nodes),
	}
}

// Mmap reserves a new region of the given size (rounded up to 2 MB).
// Nothing is mapped until first touch.
func (s *AddrSpace) Mmap(name string, bytes uint64, thpEligible bool) *Region {
	if bytes == 0 {
		panic("vm: zero-length region")
	}
	nChunks := int((bytes + uint64(mem.Size2M) - 1) / uint64(mem.Size2M))
	// Align regions to 1 GB so 1 GB mappings are possible, with a guard gap.
	const gib = 1 << 30
	start := (s.nextVA + gib - 1) / gib * gib
	s.nextVA = start + uint64(nChunks)*uint64(mem.Size2M) + gib
	r := &Region{
		Space:       s,
		ID:          len(s.regions),
		Name:        name,
		Start:       start,
		Bytes:       bytes,
		THPEligible: thpEligible,
		chunks:      make([]chunk, nChunks),
	}
	s.regions = append(s.regions, r)
	return r
}

// Regions returns the regions in creation order.
func (s *AddrSpace) Regions() []*Region { return s.regions }

// Resolve maps a virtual address to its region, or nil if unmapped space.
// Regions are created at monotonically increasing addresses (Mmap), so
// the slice is sorted by Start and a binary search finds the candidate.
func (s *AddrSpace) Resolve(va uint64) *Region {
	lo, hi := 0, len(s.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.regions[mid].Start <= va {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first region starting beyond va; the candidate is the one
	// before it.
	if lo == 0 {
		return nil
	}
	r := s.regions[lo-1]
	if va < r.Start+uint64(len(r.chunks))*uint64(mem.Size2M) {
		return r
	}
	return nil
}

// BeginEpoch rolls the lagged fault-contention estimate forward.
func (s *AddrSpace) BeginEpoch() {
	n := 0
	for i, w := range s.faulterBits {
		n += popcount64(w)
		s.faulterBits[i] = 0
	}
	s.laggedFaulters = n
}

// FaultCycles returns the cumulative page-fault handler cycles charged to
// core c.
func (s *AddrSpace) FaultCycles(c topo.CoreID) float64 { return s.faultCyclesPerCore[c] }

// FaultCyclesAll returns a copy of the per-core cumulative fault cycles.
func (s *AddrSpace) FaultCyclesAll() []float64 {
	out := make([]float64, len(s.faultCyclesPerCore))
	copy(out, s.faultCyclesPerCore)
	return out
}

// FaultCounts returns the number of faults taken at each page size.
func (s *AddrSpace) FaultCounts() (n4k, n2m, n1g uint64) {
	return s.faultCount4K, s.faultCount2M, s.faultCount1G
}

// AccessResult describes the outcome of one memory access.
type AccessResult struct {
	// Node is the NUMA node serving the data.
	Node topo.NodeID
	// PageSize is the granularity of the backing translation.
	PageSize mem.PageSize
	// Page identifies the backing page for sampling.
	Page PageID
	// Faulted reports whether this access took a page fault.
	Faulted bool
	// FaultCycles is the handler time charged to the accessing core.
	FaultCycles float64
}

// Access performs one memory access by thread (pinned to core) at byte
// offset off within r, faulting the page in if necessary and recording
// ground-truth accounting at the mapping granularity.
//
// The mapped cases are the hot path (every priced access in steady state
// lands here): one shift to find the chunk, one switch, and the
// accounting update folded in, with no second state dispatch and no
// allocation.
func (r *Region) Access(core topo.CoreID, thread int, off uint64) AccessResult {
	ci := int(off >> chunkShift)
	if ci >= len(r.chunks) {
		panic(fmt.Sprintf("vm: offset %d beyond region %s (%d bytes)", off, r.Name, r.Bytes))
	}
	c := &r.chunks[ci]
	tbit := uint64(1) << uint(thread&63)
	switch c.state {
	case state2M:
		c.accesses++
		c.threadMask |= tbit
		return AccessResult{Node: c.node, PageSize: mem.Size2M, Page: PageID{r, ci, -1}}
	case state4K:
		sub := int(off>>subShift) & (SubsPerChunk - 1)
		if n := c.subNode[sub]; n != unmappedNode {
			c.subAcc[sub]++
			c.subMask[sub] |= tbit
			c.accesses++ // chunk-level total kept for cheap region sums
			return AccessResult{Node: topo.NodeID(n), PageSize: mem.Size4K, Page: PageID{r, ci, sub}}
		}
	case state1G:
		head := &r.chunks[c.giantHead]
		head.accesses++
		head.threadMask |= tbit
		return AccessResult{Node: head.node, PageSize: mem.Size1G, Page: PageID{r, c.giantHead, -1}}
	}
	res := r.Space.fault(r, ci, core, off)
	r.recordAccess(ci, off, thread)
	return res
}

// PeekStatus classifies the outcome of PeekRecord for the engine's
// parallel pricing stage.
type PeekStatus uint8

const (
	// PeekMapped: the page is mapped; the result is valid and accounting
	// has been recorded.
	PeekMapped PeekStatus = iota
	// PeekUnmappedSub: a 4 KB slot of a split chunk is unmapped. Sub-level
	// accounting has already been recorded (the mapping the fault will
	// establish is exactly that slot); the caller prices the fault and
	// defers only its mapping.
	PeekUnmappedSub
	// PeekUnmappedChunk: the whole chunk is unmapped; no accounting was
	// recorded because its granularity depends on the fault's page-size
	// decision — the caller must defer accounting to the replay stage.
	PeekUnmappedChunk
)

// PeekRecord resolves off and records ground-truth access accounting for
// mapped pages, so the engine's parallel pricing stage can run it
// concurrently from many worker goroutines. With shared=true every
// counter update is atomic; all updates commute (integer adds and
// bit-ors), which keeps the final accounting byte-identical for any
// interleaving — the determinism guarantee does not depend on worker
// count. With shared=false (the pricing stage got a single worker, the
// common case inside a saturated sweep) the same updates run as plain
// operations, sparing the hot loop the locked-instruction cost. Mapping
// mutations are never performed here: unmapped pages are reported via
// the status and replayed later, in thread order, through ApplyFault and
// RecordAccess.
//
//lpnuma:noalloc runs once per pricing sample across every worker; any allocation here serializes on the heap
func (r *Region) PeekRecord(off uint64, thread int, shared bool) (AccessResult, PeekStatus) {
	ci := int(off >> chunkShift)
	if ci >= len(r.chunks) {
		//lpnuma:alloc-ok panic path: the process is already dead
		panic(fmt.Sprintf("vm: offset %d beyond region %s (%d bytes)", off, r.Name, r.Bytes))
	}
	c := &r.chunks[ci]
	tbit := uint64(1) << uint(thread&63)
	switch c.state {
	case state2M:
		if shared {
			atomic.AddUint64(&c.accesses, 1)
			atomicOr64(&c.threadMask, tbit)
		} else {
			c.accesses++
			c.threadMask |= tbit
		}
		return AccessResult{Node: c.node, PageSize: mem.Size2M, Page: PageID{r, ci, -1}}, PeekMapped
	case state4K:
		sub := int(off>>subShift) & (SubsPerChunk - 1)
		if shared {
			atomic.AddUint32(&c.subAcc[sub], 1)
			atomicOr64(&c.subMask[sub], tbit)
			atomic.AddUint64(&c.accesses, 1)
		} else {
			c.subAcc[sub]++
			c.subMask[sub] |= tbit
			c.accesses++
		}
		if n := c.subNode[sub]; n != unmappedNode {
			return AccessResult{Node: topo.NodeID(n), PageSize: mem.Size4K, Page: PageID{r, ci, sub}}, PeekMapped
		}
		return AccessResult{}, PeekUnmappedSub
	case state1G:
		head := &r.chunks[c.giantHead]
		if shared {
			atomic.AddUint64(&head.accesses, 1)
			atomicOr64(&head.threadMask, tbit)
		} else {
			head.accesses++
			head.threadMask |= tbit
		}
		return AccessResult{Node: head.node, PageSize: mem.Size1G, Page: PageID{r, c.giantHead, -1}}, PeekMapped
	default:
		return AccessResult{}, PeekUnmappedChunk
	}
}

// atomicOr64 sets bits in *p atomically. The loaded pre-check makes the
// saturating common case (bit already set) a plain read.
func atomicOr64(p *uint64, bits uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old&bits == bits {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|bits) {
			return
		}
	}
}

// PlanFault predicts, without mutating anything, the outcome of core
// faulting at off right now: the backing page size after the policy and
// eligibility rules, the first-touch home node, and the handler cost
// under the current lagged lock contention. The physical-memory
// fallback (a full node re-homing the page) is not predicted; the
// deterministic replay in ApplyFault handles it.
func (r *Region) PlanFault(core topo.CoreID, off uint64) (mem.PageSize, topo.NodeID, float64) {
	ci := int(off >> chunkShift)
	size := r.faultSize(ci)
	node := r.Space.placeNode(core, size)
	return size, node, r.Space.faultCost(size)
}

// faultSize applies the fault path's page-size rules for chunk ci.
func (r *Region) faultSize(ci int) mem.PageSize {
	s := r.Space
	size := s.AllocSize(r, ci)
	if size == mem.Size2M && !r.THPEligible {
		size = mem.Size4K
	}
	if size == mem.Size1G {
		// 1 GB backing is established explicitly via MapGiant (hugetlbfs
		// semantics); a stray fault falls back to 4 KB.
		size = mem.Size4K
	}
	c := &r.chunks[ci]
	if size == mem.Size2M && c.state == state4K && c.mappedSubs() > 0 {
		// A split chunk keeps 4 KB granularity; fault just the sub.
		size = mem.Size4K
	}
	return size
}

// ApplyFault replays a fault priced earlier by PlanFault: it charges the
// priced handler cost to core, marks it a faulter for the lagged
// contention estimate, and — if the page is still unmapped — establishes
// the mapping with first-touch placement. When another thread's replay
// already mapped the page this is a minor fault: the handler time was
// genuinely spent racing for the page-table lock, but the mapping is the
// winner's.
func (r *Region) ApplyFault(core topo.CoreID, off uint64, cost float64) {
	s := r.Space
	s.faultCyclesPerCore[core] += cost
	s.markFaulter(core)
	ci := int(off >> chunkShift)
	c := &r.chunks[ci]
	switch c.state {
	case state2M, state1G:
		return
	case state4K:
		sub := int(off>>subShift) & (SubsPerChunk - 1)
		if c.subNode[sub] != unmappedNode {
			return
		}
	}
	s.mapPage(r, ci, core, off)
}

// RecordAccess records ground-truth accounting for a deferred access at
// the page's current mapping granularity (the replay half of PeekRecord's
// unmapped-chunk case).
//
//lpnuma:noalloc runs once per deferred access on the epoch hot path
func (r *Region) RecordAccess(off uint64, thread int) {
	r.recordAccess(int(off>>chunkShift), off, thread)
}

// recordAccess updates ground-truth counters at the current mapping
// granularity.
func (r *Region) recordAccess(ci int, off uint64, thread int) {
	c := &r.chunks[ci]
	tbit := uint64(1) << uint(thread%64)
	switch c.state {
	case state1G:
		head := &r.chunks[c.giantHead]
		head.accesses++
		head.threadMask |= tbit
	case state4K:
		sub := int(off % uint64(mem.Size2M) / uint64(mem.Size4K))
		c.subAcc[sub]++
		c.subMask[sub] |= tbit
		c.accesses++ // chunk-level total kept for cheap region sums
	default:
		c.accesses++
		c.threadMask |= tbit
	}
}

// fault maps the page containing off, charging handler time to core.
func (s *AddrSpace) fault(r *Region, ci int, core topo.CoreID, off uint64) AccessResult {
	res := s.mapPage(r, ci, core, off)
	cost := s.faultCost(res.PageSize)
	s.faultCyclesPerCore[core] += cost
	s.markFaulter(core)
	res.Faulted = true
	res.FaultCycles = cost
	return res
}

// mapPage establishes the mapping for the page containing off with
// first-touch placement (the mutation half of fault, shared with the
// deferred replay in ApplyFault).
func (s *AddrSpace) mapPage(r *Region, ci int, core topo.CoreID, off uint64) AccessResult {
	size := r.faultSize(ci)
	node := s.placeNode(core, size)
	if !r.ptHomeSet {
		// First mapping in the region also allocates its page-table
		// pages, on the faulting thread's node.
		r.ptHome = s.Machine.NodeOf(core)
		r.ptHomeSet = true
	}
	// Reserve the physical frame before committing any mapping state, so
	// a failed huge-page reservation can fall back cleanly: first to the
	// emptiest node (capacity fallback), then — for 2 MB faults — to a
	// 4 KB mapping, which is THP's behaviour when no node can assemble a
	// contiguous 2 MB frame (fragmentation fallback).
	if err := s.Phys.Allocate(node, size); err != nil {
		alt := s.emptiestNode()
		if err := s.Phys.Allocate(alt, size); err == nil {
			node = alt
		} else if size == mem.Size2M {
			size = mem.Size4K
			node = s.placeNode(core, size)
			if err := s.Phys.Allocate(node, size); err != nil {
				alt := s.emptiestNode()
				if err := s.Phys.Allocate(alt, size); err != nil {
					panic(fmt.Sprintf("vm: machine out of memory mapping %s", r.Name))
				}
				node = alt
			}
		} else {
			panic(fmt.Sprintf("vm: machine out of memory mapping %s", r.Name))
		}
	}
	c := &r.chunks[ci]
	var res AccessResult
	if size == mem.Size2M {
		c.state = state2M
		c.node = node
		res = AccessResult{Node: node, PageSize: mem.Size2M, Page: PageID{r, ci, -1}}
		s.faultCount2M++
		r.count2M++
	} else {
		c.ensureSubs()
		if c.state == stateUnmapped {
			c.state = state4K
		}
		sub := int(off>>subShift) & (SubsPerChunk - 1)
		c.mapSub(sub, node)
		res = AccessResult{Node: node, PageSize: mem.Size4K, Page: PageID{r, ci, sub}}
		s.faultCount4K++
		r.count4K++
	}
	r.mutated()
	return res
}

// placeNode implements first-touch: pages land on the faulting core's
// node.
func (s *AddrSpace) placeNode(core topo.CoreID, _ mem.PageSize) topo.NodeID {
	return s.Machine.NodeOf(core)
}

func (s *AddrSpace) emptiestNode() topo.NodeID {
	best := topo.NodeID(0)
	var bestFree uint64
	for n := 0; n < s.Machine.Nodes; n++ {
		if free := s.Phys.FreeBytes(topo.NodeID(n)); free > bestFree {
			bestFree = free
			best = topo.NodeID(n)
		}
	}
	return best
}

// FaultCostFor prices one fault at the given page size under the current
// (lagged) page-table-lock contention; the engine uses it to charge
// allocation churn in expectation.
func (s *AddrSpace) FaultCostFor(size mem.PageSize) float64 { return s.faultCost(size) }

// MarkFaulter records that core is taking (synthetic, churn) faults this
// epoch so the lagged lock-contention estimate counts it.
func (s *AddrSpace) MarkFaulter(core topo.CoreID) { s.markFaulter(core) }

func (s *AddrSpace) markFaulter(core topo.CoreID) {
	s.faulterBits[int(core)>>6] |= 1 << (uint(core) & 63)
}

// faultCost prices one fault including lagged lock contention.
func (s *AddrSpace) faultCost(size mem.PageSize) float64 {
	var base float64
	switch size {
	case mem.Size4K:
		base = s.Faults.Base4K
	case mem.Size2M:
		base = s.Faults.Base2M
	default:
		base = s.Faults.Base1G
	}
	contenders := s.laggedFaulters - 1
	if contenders < 0 {
		contenders = 0
	}
	cost := base + float64(contenders)*s.Faults.LockCyclesPerFaulter
	if s.PTReplicas > 1 {
		cost += float64(s.PTReplicas-1) * s.Faults.ReplicaUpdateCycles
	}
	return cost
}

// popcount64 is a tiny helper for thread-mask cardinality.
func popcount64(x uint64) int { return bits.OnesCount64(x) }
