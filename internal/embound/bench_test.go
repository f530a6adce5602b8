package embound_test

import (
	"context"
	"runtime"
	"testing"

	"permine/internal/combinat"
	"permine/internal/embound"
	"permine/internal/gen"
)

// BenchmarkEmWorkers measures the chunked e_m sweep on the mppm-genome
// regime (10 kb GenomeLike, gap [9,12], m = 8) on one worker and on every
// CPU. The sub-benchmark names stay fixed across machines; the worker
// and chunk counts are reported as metrics.
func BenchmarkEmWorkers(b *testing.B) {
	s, err := gen.GenomeLike(10_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=NumCPU", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms embound.Measurement
			for i := 0; i < b.N; i++ {
				ms, err = embound.Measure(context.Background(), s, g, 8, embound.Options{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.workers), "workers")
			b.ReportMetric(float64(ms.Chunks), "chunks")
			b.ReportMetric(float64(ms.Em), "e_m")
		})
	}
}
