package export

import (
	"bytes"
	"testing"
)

// gridCellSpec is one cell shaped like the grid-store benchmark
// workload's: 8x4 GPUs, 120 synthetic jobs, both sinks on, so the
// archive carries the metrics payload and decision trace that make up
// most of a stored object's bytes.
const gridCellSpec = `{"name": "codec-bench", "cluster": {"nodes": 8, "gpus_per_node": 4},
	"workload": {"source": "synthetic", "num_jobs": 120},
	"policy": {"name": "packed-sticky"}, "sched": {"name": "las"},
	"metrics": {"enabled": true}, "decisions": {"enabled": true}}`

// figureCellSpec is one cell shaped like the paper figures' reads: a
// 500-job Synergy trace on the 256-GPU cluster and no sinks, so the
// archive is all core and nearly all of the core is jobs.
const figureCellSpec = `{"name": "codec-figure", "cluster": {"nodes": 64},
	"workload": {"source": "synergy", "jobs_per_hour": 8, "num_jobs": 500},
	"policy": {"name": "pal"}, "sched": {"name": "fifo"}, "locality": {"lacross": 1.7}}`

// BenchmarkResultCodec times the result codec on two stored objects, a
// grid-store cell and a figure cell, in MB/s of archive bytes and
// allocations per op: encode, the full decode and the core decode. Run
// with
//
//	go test -run '^$' -bench BenchmarkResultCodec -benchmem ./internal/export
func BenchmarkResultCodec(b *testing.B) {
	for _, cell := range []struct{ name, spec string }{
		{"grid", gridCellSpec},
		{"figure", figureCellSpec},
	} {
		b.Run(cell.name, func(b *testing.B) { benchmarkCodec(b, cell.spec) })
	}
}

func benchmarkCodec(b *testing.B, spec string) {
	res, err := buildCell(b, spec).Run()
	if err != nil {
		b.Fatal(err)
	}
	var archive bytes.Buffer
	if err := EncodeResult(&archive, res); err != nil {
		b.Fatal(err)
	}
	data := archive.Bytes()

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := EncodeResult(&buf, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := UnmarshalResult(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The warm sweep's read: the core decoded, the sections only hashed.
	// MB/s counts the whole archive, so it compares directly with decode.
	b.Run("decode-core", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := UnmarshalResultCore(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
