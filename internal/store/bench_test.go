package store

import (
	"testing"
	"time"
)

// BenchmarkStoreWarmStart quantifies what the persistent tier buys: the
// wall-clock of simulating a scenario cold (run + encode + atomic write)
// versus serving it warm from the store (read + decode), in full (Get)
// and as the payload-free scenario sweep reads it (GetCore). CI archives the
// reported metrics as BENCH_store.json alongside the engine and
// telemetry bench trajectories. Run with
//
//	go test -bench=BenchmarkStoreWarmStart -benchtime=1x ./internal/store
func BenchmarkStoreWarmStart(b *testing.B) {
	// A saturated, preemption-heavy cell (2000 bursty jobs contending for
	// 8 GPUs under LAS) where even the incremental engine pays real
	// simulation time — the regime in which a sweep actually hurts and
	// warm-starting matters. Telemetry is on so the archive carries its
	// full payload.
	const spec = `{"name": "warm-bench", "cluster": {"nodes": 2},
		"workload": {"source": "synthetic", "arrivals": "bursty", "num_jobs": 2000, "jobs_per_hour": 60},
		"policy": {"name": "pal"}, "sched": {"name": "las"},
		"metrics": {"enabled": true}}`
	for i := 0; i < b.N; i++ {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}

		t0 := time.Now()
		key, res := runSpec(b, spec)
		if err := st.Put(key, res); err != nil {
			b.Fatal(err)
		}
		cold := time.Since(t0)

		t0 = time.Now()
		loaded, ok, err := st.Get(key)
		if err != nil {
			b.Fatal(err)
		}
		warm := time.Since(t0)
		if !ok || len(loaded.Jobs) != len(res.Jobs) {
			b.Fatal("warm read returned a different result shape")
		}

		t0 = time.Now()
		core, ok, err := st.GetCore(key)
		if err != nil {
			b.Fatal(err)
		}
		warmCore := time.Since(t0)
		if !ok || len(core.Jobs) != len(res.Jobs) {
			b.Fatal("core read returned a different result shape")
		}

		b.ReportMetric(cold.Seconds()*1000, "cold-ms")
		b.ReportMetric(warm.Seconds()*1000, "warm-ms")
		b.ReportMetric(warmCore.Seconds()*1000, "warm-core-ms")
		b.ReportMetric(cold.Seconds()/warm.Seconds(), "warm-speedup")
	}
}
