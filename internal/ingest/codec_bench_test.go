package ingest

import (
	"testing"

	"swarmavail/internal/trace"
)

var codecSink int

// BenchmarkOpCodec is the ops codec per op kind and direction, one
// 512-op frame per iteration, over a generated study's swarms so titles
// and file lists are the ones a preload registers. ns/op, B/op and
// allocs/op are per frame; wire-B/op is the encoded bytes per op.
func BenchmarkOpCodec(b *testing.B) {
	const n = 512
	kinds := map[string][]Op{}
	for i, tr := range trace.GenerateStudy(trace.DefaultStudyConfig(n, 1)) {
		kinds["event"] = append(kinds["event"], EventOp(Record{SwarmID: tr.Meta.ID, PeerID: uint64(i), Seed: true, Online: i%2 == 0, Time: float64(i) / 8}))
		kinds["meta"] = append(kinds["meta"], MetaOp(tr.Meta, tr.MonitoredDays))
		kinds["census"] = append(kinds["census"], CensusOp(trace.Snapshot{Meta: tr.Meta, Seeds: i % 7, Leechers: i % 31, Downloads: 100 * i}))
	}
	for _, kind := range []string{"event", "meta", "census"} {
		ops := kinds[kind]
		frame, err := encodeOps(nil, ops)
		if err != nil {
			b.Fatal(err)
		}
		perOp := float64(len(frame)-opsHeaderSize) / n
		b.Run(kind+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				if buf, err = encodeOps(buf[:0], ops); err != nil {
					b.Fatal(err)
				}
			}
			codecSink += len(buf)
			b.ReportMetric(perOp, "wire-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rec")
		})
		b.Run(kind+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			var scratch []Op
			for i := 0; i < b.N; i++ {
				if scratch, err = decodeOpsInto(scratch[:0], frame); err != nil {
					b.Fatal(err)
				}
			}
			codecSink += len(scratch)
			b.ReportMetric(perOp, "wire-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rec")
		})
	}
}
