package sim_test

// Benchmarks backing the dense-trace (event-horizon) speedup claim.
// PR 2's fast-forward only engaged on *sparse* traces — every active
// job running, nothing waiting. These benches cover the opposite
// regime: a saturated cluster with a standing queue, where the old
// engine re-sorted, re-marked and re-placed every single round. The
// incremental core bulk-advances through busy rounds whose decision
// provably repeats (see sim.PartitionStableScheduler), so the dense
// workloads below are exactly where it must earn its keep. Run with
//
//	go test -bench=BenchmarkSimDense -benchtime=1x ./internal/sim
//
// BenchmarkSimDenseSpeedup reports the naive/incremental ratio
// directly; CI records it in BENCH_sim.json. Trace and profile
// generation happen once, outside the timed region — only the engine
// is under measurement (each run still gets a fresh placer, since
// placers carry RNG state).

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// denseInputs materializes the shared benchmark inputs once.
var denseInputs = sync.OnceValue(func() (in struct {
	profile32 *vprof.Profile
	sia       *trace.Trace
	bursty    *trace.Trace
}) {
	in.profile32 = vprof.GenerateLonghorn(32, 0x9A1)
	// Saturated Sia: 320 jobs submitted over 8 hours onto 8 GPUs, so
	// the queue stays deep from the first hour to the drain.
	siaParams := trace.DefaultSiaPhillyParams()
	siaParams.NumJobs = 320
	in.sia = trace.SiaPhilly(siaParams, 5)
	// Bursty synthetic: MMPP arrivals of long jobs (8 h median) that
	// alternate saturation bursts with busy-but-stable stretches — the
	// regime every synthetic bursty/diurnal sweep spends its rounds in.
	tr, err := trace.Synth(trace.SynthParams{
		Name:          "dense-bursty-bench",
		NumJobs:       500,
		Seed:          0xD3,
		Arrivals:      trace.ArrivalBursty,
		JobsPerHour:   25,
		MedianWorkSec: 8 * 3600,
	})
	if err != nil {
		panic(err)
	}
	in.bursty = tr
	return in
})

// denseSiaConfig is the saturated Sia workload under FIFO +
// Packed-Sticky (arrival order is frozen, so the whole standing-queue
// regime is bulk-advanceable between arrivals and completions).
func denseSiaConfig(disableFF bool) sim.Config {
	in := denseInputs()
	return sim.Config{
		Topology:           clusterTopology(2), // 8 GPUs: cumulative demand far exceeds capacity
		Trace:              in.sia,
		Sched:              sched.FIFO{},
		Placer:             place.NewPacked(true, 7),
		TrueProfile:        in.profile32,
		Lacross:            1.5,
		DisableFastForward: disableFF,
	}
}

// denseBurstyConfig is the bursty synthetic workload under SRTF +
// Packed-Sticky (remaining-work priorities evolve every round, but only
// in the partition-safe direction — the incremental ordering phase
// repairs the order in place when runners cross).
func denseBurstyConfig(disableFF bool) sim.Config {
	in := denseInputs()
	return sim.Config{
		Topology:           clusterTopology(8),
		Trace:              in.bursty,
		Sched:              sched.SRTF{},
		Placer:             place.NewPacked(true, 11),
		TrueProfile:        in.profile32,
		Lacross:            1.5,
		DisableFastForward: disableFF,
	}
}

func runDense(b *testing.B, mk func(bool) sim.Config, disableFF bool) {
	b.Helper()
	denseInputs() // materialize shared inputs outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(mk(disableFF)) // fresh config: placers carry RNG state
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds == 0 {
			b.Fatal("empty run")
		}
	}
}

// The incremental benchmarks double as the allocation gauge for the
// steady-state round loop (run with -benchmem). The PR 9 allocation
// pass — generic sorts instead of reflection-based sort.Slice*, the
// engine-owned reused ordering buffer, and packScratch in place — took
// Sia from 500897 B/op / 3260 allocs/op to 159593 B/op / 1306 allocs/op
// and Bursty from 1216369 B/op / 6672 allocs/op to 278289 B/op /
// 2459 allocs/op (-benchtime=5x); what remains is newEngine setup and
// the allocation slices the engine retains, not per-round churn.
func BenchmarkSimDenseSiaNaive(b *testing.B)       { runDense(b, denseSiaConfig, true) }
func BenchmarkSimDenseSiaIncremental(b *testing.B) { runDense(b, denseSiaConfig, false) }

func BenchmarkSimDenseBurstyNaive(b *testing.B)       { runDense(b, denseBurstyConfig, true) }
func BenchmarkSimDenseBurstyIncremental(b *testing.B) { runDense(b, denseBurstyConfig, false) }

// BenchmarkSimDenseSpeedup runs both dense configurations each way back
// to back and reports per-workload ratios plus their geometric mean, so
// one -benchtime=1x invocation answers "what does the incremental core
// buy on dense traces".
func BenchmarkSimDenseSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sia := measureSpeedup(b, denseSiaConfig)
		bursty := measureSpeedup(b, denseBurstyConfig)
		b.ReportMetric(sia, "sia-speedup")
		b.ReportMetric(bursty, "bursty-speedup")
		b.ReportMetric(geomean2(sia, bursty), "dense-speedup")
	}
}

// measureSpeedup times each engine as the best of three runs — these
// are millisecond-scale single simulations, so min-of-N filters
// scheduler noise on shared CI machines. Every run gets a fresh config
// (and so a fresh placer RNG) from mk.
func measureSpeedup(b *testing.B, mk func(bool) sim.Config) float64 {
	b.Helper()
	best := func(disableFF bool) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			cfg := mk(disableFF)
			t0 := time.Now()
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t0); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	naive := best(true)
	fast := best(false)
	return naive.Seconds() / fast.Seconds()
}

func geomean2(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Sqrt(a * b)
}
