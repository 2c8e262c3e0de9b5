package sim_test

// Shared event-timeline specs for the reference matrix
// (reference_test.go) and the sampled↔analytic equivalence
// suite (equivalence_test.go). They are deliberately small — the
// suite-registered dynamic workloads (WC.churn's 60 GiB arena) are
// sized to fragment machine A and are far too heavy for seed-swept
// matrices — but they exercise every event kind the engine knows.

import (
	"repro/internal/cache"
	"repro/internal/workloads"
)

// churnTimeline shrinks a shared buffer, then allocates a fresh region
// into the freed physical memory: the alloc-churn path (region-table
// growth, lazy faulting, allocator reuse of scattered frames).
func churnTimeline() workloads.Spec {
	return workloads.Spec{
		Name: "churn.eq",
		Regions: []workloads.RegionSpec{
			{Name: "work", Bytes: 96 << 20, Weight: 0.5, Loc: cache.RandomUniform,
				Sharing: workloads.PrivateBlocked, Init: workloads.InitOwner, InitTouchWeight: 64},
			{Name: "buf", Bytes: 64 << 20, Weight: 0.5, Loc: cache.ZipfHot,
				HotFrac: 0.25, HotAccessFrac: 0.70, DRAMFloor: 0.30,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 64},
		},
		Events: []workloads.EventSpec{
			{AtWorkFrac: 0.35, ShrinkRegion: "buf", ShrinkToFrac: 0.25,
				Weights: []float64{0.65, 0.35}},
			{AtWorkFrac: 0.55,
				Alloc: &workloads.RegionSpec{Name: "out", Bytes: 48 << 20, Weight: 0.40,
					Loc: cache.ZipfHot, HotFrac: 0.10, DRAMFloor: 0.30,
					Sharing: workloads.SharedAll},
				Weights: []float64{0.45, 0.15, 0.40}},
		},
		WorkPerThread:        6e7,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.6,
	}
}

// shiftFreeTimeline collapses a shared region's hot set mid-run, then
// frees the region outright: the distribution-shift path (Region.Gen
// invalidation of the analytic census) plus a full unmap.
func shiftFreeTimeline() workloads.Spec {
	return workloads.Spec{
		Name: "free.eq",
		Regions: []workloads.RegionSpec{
			{Name: "gather", Bytes: 80 << 20, Weight: 0.45, Loc: cache.ZipfHot,
				HotFrac: 0.40, HotAccessFrac: 0.70, DRAMFloor: 0.30,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 64},
			{Name: "work", Bytes: 96 << 20, Weight: 0.55, Loc: cache.RandomUniform,
				Sharing: workloads.PrivateBlocked, Init: workloads.InitOwner, InitTouchWeight: 64},
		},
		Events: []workloads.EventSpec{
			{AtWorkFrac: 0.40,
				Shift:   &workloads.ShiftSpec{Region: "gather", HotFrac: 0.05, HotAccessFrac: 0.85},
				Weights: []float64{0.45, 0.55}},
			{AtWorkFrac: 0.70, FreeRegion: "gather",
				Weights: []float64{0, 1}},
		},
		WorkPerThread:        6e7,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.6,
	}
}
