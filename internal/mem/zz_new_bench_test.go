package mem

import (
	"testing"

	"repro/internal/topo"
)

var sink *System

func BenchmarkZZNewSystemB(b *testing.B) {
	m := topo.MachineB()
	for i := 0; i < b.N; i++ {
		sink = NewSystem(m, DefaultLatencyParams())
	}
}
