package workload

import (
	"testing"

	"mpclogic/internal/rel"
)

// BenchmarkGenerate prices generating the inputs the engine benchmarks
// run on: 20 000 tuples per relation, appended ascending into storage
// sized up front.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func(int) *rel.Instance
	}{
		{"TriangleSkewFree", TriangleSkewFree},
		{"JoinSkewFree", JoinSkewFree},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.gen(20000)
			}
		})
	}
}
