// Package mem models the physical memory system: per-node capacity
// accounting for 4 KB / 2 MB / 1 GB frames and, critically for the paper,
// per-node memory-controller load. Requests to an overloaded controller see
// latencies of up to ~1000 cycles versus ~200 cycles uncontended (§1), and
// the imbalance of the per-controller request rates is the paper's central
// NUMA-health metric.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/topo"
)

// PageSize is a supported translation granularity in bytes.
type PageSize uint64

// The three page sizes the paper considers: regular x86 4 KB pages, 2 MB
// large pages (THP), and 1 GB very large pages (§4.4).
const (
	Size4K PageSize = 4 << 10
	Size2M PageSize = 2 << 20
	Size1G PageSize = 1 << 30
)

// String renders the conventional name of the page size.
func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4K"
	case Size2M:
		return "2M"
	case Size1G:
		return "1G"
	default:
		return fmt.Sprintf("PageSize(%d)", uint64(s))
	}
}

// Valid reports whether s is one of the supported sizes.
func (s PageSize) Valid() bool {
	return s == Size4K || s == Size2M || s == Size1G
}

// ErrOutOfMemory is returned when a node's free bytes cannot cover an
// allocation at all.
var ErrOutOfMemory = errors.New("mem: node out of memory")

// ErrFragmented is returned when a node has enough free bytes but no
// wholly free aligned block of the requested size — the fragmentation
// failure mode that makes huge-page allocation fail under churn even on
// a half-empty node.
var ErrFragmented = errors.New("mem: node free memory too fragmented")

// ErrOverFree is returned by Free when node n has no live allocation of
// the requested size. Under event timelines a workload-spec bug (e.g. a
// timeline freeing the same region twice) can reach this path, so it is
// a typed error rather than a panic; Spec.Validate rejects such
// timelines before a run starts.
var ErrOverFree = errors.New("mem: free without matching allocation")

// LatencyParams configures the DRAM latency/contention model.
type LatencyParams struct {
	// FixedCycles is the uncontended non-queuing portion of a DRAM access
	// (row activation, bus transfer).
	FixedCycles float64
	// QueueCycles is the uncontended controller-queue portion; the
	// contention multiplier applies to this term.
	QueueCycles float64
	// ServiceReqPerCycle is the controller's peak service rate; epoch
	// utilization is requests / (cycles × ServiceReqPerCycle).
	ServiceReqPerCycle float64
	// MaxFactor caps the contention multiplier so an overloaded
	// controller saturates near the paper's ~1000-cycle figure instead of
	// diverging.
	MaxFactor float64
}

// DefaultLatencyParams returns the calibration used for both machines:
// ~200 cycles uncontended and ~950 cycles fully congested, matching the
// figures the paper cites from the Carrefour study.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		FixedCycles:        50,
		QueueCycles:        150,
		ServiceReqPerCycle: 0.08,
		MaxFactor:          6.0,
	}
}

// LatencyParamsFor returns the per-machine calibration: machine A's
// Istanbul-generation controllers have a little more headroom per core
// cycle (fewer, slower cores per node) than machine B's Interlagos nodes.
func LatencyParamsFor(machineName string) LatencyParams {
	p := DefaultLatencyParams()
	switch machineName {
	case "A":
		p.ServiceReqPerCycle = 0.095
	case "B":
		p.ServiceReqPerCycle = 0.075
	}
	return p
}

// System tracks physical memory occupancy and controller load for one
// machine. It is not safe for concurrent use; the simulation engine merges
// per-thread request batches deterministically before touching it.
type System struct {
	Machine *topo.Machine
	Params  LatencyParams

	nodes []*blockNode // per-node block occupancy (see block.go)
	rng   uint64       // LCG state for Free's victim picks

	epochReq []float64 // requests recorded this epoch per node
	totalReq []float64 // requests recorded over the whole run per node
	latency  []float64 // lagged per-node access latency for the current epoch
	util     []float64 // lagged per-node utilization
}

// NewSystem builds an empty memory system for machine m.
func NewSystem(m *topo.Machine, p LatencyParams) *System {
	s := &System{
		Machine:  m,
		Params:   p,
		nodes:    make([]*blockNode, m.Nodes),
		rng:      0x9E3779B97F4A7C15,
		epochReq: make([]float64, m.Nodes),
		totalReq: make([]float64, m.Nodes),
		latency:  make([]float64, m.Nodes),
		util:     make([]float64, m.Nodes),
	}
	for i := range s.nodes {
		s.nodes[i] = newBlockNode(m.DRAMPerNode)
	}
	base := p.FixedCycles + p.QueueCycles
	for i := range s.latency {
		s.latency[i] = base
	}
	return s
}

// Allocate reserves one frame of size bytes on node n, failing with
// ErrOutOfMemory when the node's DRAM is exhausted and with ErrFragmented
// when free bytes suffice but no aligned block of the requested size is
// wholly free. Allocation never falls back to another node or a smaller
// page size here; fallback is an OS policy decision made by the caller.
func (s *System) Allocate(n topo.NodeID, size PageSize) error {
	if !size.Valid() {
		return fmt.Errorf("mem: invalid page size %d", uint64(size))
	}
	if s.AllocateRun(n, size, 1) == 1 {
		return nil
	}
	if uint64(size) > s.nodes[n].freeBytes {
		return ErrOutOfMemory
	}
	return ErrFragmented
}

// AllocateRun reserves count frames of size bytes on node n, exactly as
// count sequential Allocate calls would, stopping at the first failure
// and returning how many frames were reserved.
func (s *System) AllocateRun(n topo.NodeID, size PageSize, count int) int {
	if !size.Valid() {
		return 0
	}
	return s.nodes[n].alloc(size, count)
}

// Free releases one live frame of size bytes on node n, picked uniformly
// among the node's live frames of that size: callers identify frames by
// (node, size) only. With no live frame of the size it returns
// ErrOverFree.
func (s *System) Free(n topo.NodeID, size PageSize) error {
	return s.FreeRun(n, size, 1)
}

// FreeRun releases count live frames of size bytes on node n with the
// outcome distribution of count sequential Free calls, drawn at once.
// When fewer than count frames are live it frees them all and returns
// ErrOverFree.
func (s *System) FreeRun(n topo.NodeID, size PageSize, count int) error {
	if !size.Valid() {
		return fmt.Errorf("mem: invalid page size %d", uint64(size))
	}
	b := s.nodes[n]
	live := b.liveFrames(size)
	b.release(size, min(count, live), &s.rng)
	if count > live {
		return fmt.Errorf("%w: no live %s frame on node %d", ErrOverFree, size, n)
	}
	return nil
}

// Allocated reports the bytes in use on node n.
func (s *System) Allocated(n topo.NodeID) uint64 {
	return s.Machine.DRAMPerNode - s.nodes[n].freeBytes
}

// Free bytes remaining on node n (contiguity not implied; see
// FreeContiguous).
func (s *System) FreeBytes(n topo.NodeID) uint64 {
	return s.nodes[n].freeBytes
}

// FreeContiguous reports whether node n could currently satisfy one
// allocation of the given size — i.e. whether an aligned block of that
// size is wholly free. FreeBytes >= size with FreeContiguous false is
// the fragmentation signature.
func (s *System) FreeContiguous(n topo.NodeID, size PageSize) bool {
	b := s.nodes[n]
	return size == Size4K && b.freeBytes > 0 || size == Size2M && b.free2M > 0 || size == Size1G && b.free1G > 0
}

// Free2MBlocks reports how many aligned 2 MB blocks of node n are wholly free.
func (s *System) Free2MBlocks(n topo.NodeID) int { return s.nodes[n].free2M }

// Free1GBlocks reports how many aligned 1 GB blocks of node n are
// wholly free.
func (s *System) Free1GBlocks(n topo.NodeID) int { return s.nodes[n].free1G }

// Record charges count DRAM requests to node n's controller in the current
// epoch. The simulation engine calls this with sampled request counts
// scaled to the thread's actual progress.
func (s *System) Record(n topo.NodeID, count float64) {
	s.epochReq[n] += count
	s.totalReq[n] += count
}

// RecordN charges count requests to node n's controller times times in a
// row — the batched equivalent of times Record calls. The accumulators
// advance by the same sequence of float additions as the per-call path,
// so the epoch totals stay byte-identical; hoisting them into locals just
// keeps the loop in registers.
func (s *System) RecordN(n topo.NodeID, count float64, times int) {
	er, tr := s.epochReq[n], s.totalReq[n]
	for i := 0; i < times; i++ {
		er += count
		tr += count
	}
	s.epochReq[n], s.totalReq[n] = er, tr
}

// Latency returns the cycles a DRAM request to node n costs in the current
// epoch. The value is lagged: it was derived from the previous epoch's
// request rates by EndEpoch, modeling the feedback delay of real queueing.
func (s *System) Latency(n topo.NodeID) float64 { return s.latency[n] }

// Utilization returns node n's lagged controller utilization in [0, ~1+].
func (s *System) Utilization(n topo.NodeID) float64 { return s.util[n] }

// FillLatencies writes every node's current (lagged) latency into dst,
// which must have length Machine.Nodes. The engine snapshots the values
// once per epoch into a flat table instead of paying an interface-free
// but still call-heavy Latency lookup per priced DRAM access.
func (s *System) FillLatencies(dst []float64) {
	copy(dst, s.latency)
}

// EndEpoch folds the epoch's request counts into the latency model for the
// next epoch and resets the per-epoch counters. epochCycles is the length
// of the finished epoch in core cycles.
func (s *System) EndEpoch(epochCycles float64) {
	capacity := epochCycles * s.Params.ServiceReqPerCycle
	for n := range s.epochReq {
		u := 0.0
		if capacity > 0 {
			u = s.epochReq[n] / capacity
		}
		s.util[n] = u
		target := s.Params.FixedCycles + s.Params.QueueCycles*s.contentionFactor(u)
		// Beyond saturation the controller is throughput-bound: latency
		// grows with the backlog ratio past the normal-case cap. This is
		// the regime behind the ~4× collapse with 1 GB pages (§4.4).
		if u > 1 {
			target *= u
		}
		// EWMA damping stabilizes the lagged fixed point.
		s.latency[n] = 0.5*s.latency[n] + 0.5*target
		s.epochReq[n] = 0
	}
}

// contentionFactor maps utilization to a queueing-delay multiplier: 1 when
// idle, super-linear as the controller saturates, capped at MaxFactor.
func (s *System) contentionFactor(u float64) float64 {
	if u <= 0 {
		return 1
	}
	eff := u
	if eff > 0.97 {
		eff = 0.97
	}
	f := 1 + 2.5*eff*eff/(1-eff)
	if f > s.Params.MaxFactor {
		f = s.Params.MaxFactor
	}
	return f
}

// EpochRequests returns a copy of this epoch's per-node request counts
// (before EndEpoch resets them).
func (s *System) EpochRequests() []float64 {
	out := make([]float64, len(s.epochReq))
	copy(out, s.epochReq)
	return out
}

// TotalRequests returns a copy of the cumulative per-node request counts.
func (s *System) TotalRequests() []float64 {
	out := make([]float64, len(s.totalReq))
	copy(out, s.totalReq)
	return out
}

// ImbalancePct is the paper's traffic-imbalance metric computed over the
// cumulative per-controller request counts: the standard deviation of the
// rates as a percent of the mean (§2.1).
func (s *System) ImbalancePct() float64 {
	return stats.ImbalancePct(s.totalReq)
}

// ResetCounters clears the cumulative request statistics, used when a
// measurement interval should exclude warmup.
func (s *System) ResetCounters() {
	for i := range s.totalReq {
		s.totalReq[i] = 0
		s.epochReq[i] = 0
	}
}
