package obs

import (
	"io"
	"testing"
)

// Registry hot paths. CI's bench-smoke job runs each once, as the check
// that they still build and run.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkCounterLookup measures the labeled map lookup that a
// handler pays when it resolves the series per call instead of
// capturing the handle.
func BenchmarkCounterLookup(b *testing.B) {
	r := NewRegistry()
	l1, l2 := L("handler", "api"), L("code", "2xx")
	r.Counter("bench_total", l1, l2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_total", l1, l2).Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", LatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-6)
			i++
		}
	})
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter("series_total", L("i", string(rune('a'+i)))).Add(uint64(i))
	}
	r.Histogram("lat_seconds", LatencyBuckets).Observe(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
