// Package journal is the observability layer of the orchestration
// stack: where internal/metrics and internal/decision explain what a
// *simulation* did, journal explains what a *sweep process* did —
// which cells it executed versus served from which cache tier, which
// worker slot carried each task and for how long, and how the
// persistent store's I/O behaved — so a grid split across N shard
// processes can be audited for stragglers, per-shard tier hit rates
// and store latency outliers after the fact.
//
// Each process appends one JSONL event stream (a "journal"): a header
// record identifying the process (role, shard, worker count, start
// time), one task record per completed runner task (fed by
// runner.Probe), and a final summary record carrying the pool and
// cache counters, store-probe latency/size histograms and Go runtime
// memory statistics. Engine counters ride the task records only: a
// process's engine totals come from summing its task events
// (Process.EngineCounters). Appends are single-write, advisory-flocked
// and crash-tolerant: a process that dies mid-sweep leaves a valid
// journal with no summary (the reader reports it as incomplete), and a
// torn trailing line is skipped on load, mirroring the store index.
//
// The read side (Load, LoadDir, plus the aggregation helpers on
// Process) reconstructs a cross-shard timeline from N journal files;
// cmd/palreport -journal renders the tables.
//
// Everything here carries wall-clock by design, and therefore lives
// strictly outside results, cache keys and byte-identity comparisons —
// the same treatment as sim.Result.PlaceTimes. The writer is purely
// observational: a sweep run with a journal attached produces
// byte-identical tables to one without (pinned by
// TestProbeDoesNotPerturbSweep in cmd/palsweep).
package journal

import (
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Version tags the journal event schema. Readers skip record types they
// do not know, so additive changes need no bump; a bump means old
// readers would misinterpret existing fields.
const Version = 1

// Ext is the filename suffix of journal files.
const Ext = ".journal.jsonl"

// Record type tags, the "type" field of every JSONL line.
const (
	TypeHeader  = "header"
	TypeTask    = "task"
	TypeSummary = "summary"
)

// Header is the first record of every journal: who is writing it.
type Header struct {
	Type    string `json:"type"` // TypeHeader
	Version int    `json:"v"`
	// Role names the writing program ("palsweep", "palsim").
	Role string `json:"role"`
	// Shard is the -shard selector ("0/4") or empty when unsharded.
	Shard string `json:"shard,omitempty"`
	// Workers is the pool's concurrency bound.
	Workers int   `json:"workers"`
	PID     int   `json:"pid"`
	StartMS int64 `json:"start_ms"` // wall clock, Unix milliseconds
}

// TaskEvent is one completed runner task: the JSONL form of
// runner.TaskSpan.
type TaskEvent struct {
	Type    string  `json:"type"` // TypeTask
	Key     string  `json:"key,omitempty"`
	Label   string  `json:"label,omitempty"`
	Worker  int     `json:"worker"`
	Outcome string  `json:"outcome"` // runner.TaskOutcome
	Error   string  `json:"error,omitempty"`
	StartMS int64   `json:"start_ms"`         // wall clock, Unix milliseconds
	DurMS   float64 `json:"dur_ms"`           // whole task: cache + I/O + run
	RunMS   float64 `json:"run_ms,omitempty"` // inside the Run closure (0 for hits)
	// Counters are the engine introspection counters the task's run
	// populated (runner.TaskSpan.Counters): present only for executed
	// and snapshot-fork outcomes, and absent entirely in journals
	// written before the field existed — readers must tolerate nil.
	Counters *sim.Counters `json:"counters,omitempty"`
}

// OpStats aggregates one store operation kind (Get or Put): counts and
// streaming latency/size histograms, constant memory regardless of
// sweep size.
type OpStats struct {
	Count  int64 `json:"count"`
	Errors int64 `json:"errors,omitempty"`
	// Misses counts clean Get misses (key absent, no error); zero for
	// Put.
	Misses int64 `json:"misses,omitempty"`
	// LatencyMS holds per-op wall-clock latency samples in milliseconds;
	// Bytes holds encoded object sizes when the backend can report them
	// (store.Store.ObjectSize). Either may be nil when no samples landed.
	LatencyMS *stats.StreamingHist `json:"latency_ms,omitempty"`
	Bytes     *stats.StreamingHist `json:"bytes,omitempty"`
}

// MemStats is the Go-runtime slice of the summary record.
type MemStats struct {
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	SysMB        float64 `json:"sys_mb"`
	NumGC        uint32  `json:"num_gc"`
	PauseTotalMS float64 `json:"gc_pause_total_ms"`
	Goroutines   int     `json:"goroutines"`
}

// Summary is the final record of a cleanly finished journal: the
// process's lifetime counters and aggregate probes. A journal without
// one belongs to a process that crashed or was cancelled mid-sweep.
type Summary struct {
	Type  string `json:"type"` // TypeSummary
	EndMS int64  `json:"end_ms"`
	// Runner and Cache snapshot the pool's and cache's lifetime
	// counters at exit.
	Runner runner.Stats       `json:"runner"`
	Cache  *runner.CacheStats `json:"cache,omitempty"`
	// StoreGet/StorePut are the store probe's per-op aggregates;
	// StoreDetached reports that the cache's circuit breaker dropped
	// the backend mid-sweep (results after that point were not
	// persisted).
	StoreGet      *OpStats `json:"store_get,omitempty"`
	StorePut      *OpStats `json:"store_put,omitempty"`
	StoreDetached bool     `json:"store_detached,omitempty"`
	// GC/Verify counters, filled by processes that ran store
	// maintenance (zero otherwise).
	GCRemoved      int      `json:"gc_removed,omitempty"`
	VerifyProblems int      `json:"verify_problems,omitempty"`
	Mem            MemStats `json:"mem"`
}

// MergeOps folds b into a bin-wise and returns the merged aggregate
// (either argument may be nil). Histograms merge only when their shapes
// agree — always true for probe-produced journals, which share the
// fixed configuration below; on a mismatch the histogram is dropped
// rather than silently mis-binned, while the counts still merge.
func MergeOps(a, b *OpStats) *OpStats {
	if a == nil && b == nil {
		return nil
	}
	out := &OpStats{}
	for _, s := range []*OpStats{a, b} {
		if s == nil {
			continue
		}
		out.Count += s.Count
		out.Errors += s.Errors
		out.Misses += s.Misses
		out.LatencyMS = mergeHist(out.LatencyMS, s.LatencyMS)
		out.Bytes = mergeHist(out.Bytes, s.Bytes)
	}
	return out
}

// mergeHist adds src into dst bin-wise, tracking exact extremes, or
// returns nil when the shapes disagree (mis-binned quantiles would be
// silently wrong). Neither argument is mutated.
func mergeHist(dst, src *stats.StreamingHist) *stats.StreamingHist {
	if src == nil || src.N == 0 {
		return dst
	}
	if dst == nil || dst.N == 0 {
		cp := *src
		cp.Counts = append([]int64(nil), src.Counts...)
		return &cp
	}
	if dst.Lo != src.Lo || dst.Hi != src.Hi || len(dst.Counts) != len(src.Counts) {
		return nil
	}
	out := *dst
	out.Counts = append([]int64(nil), dst.Counts...)
	for i, c := range src.Counts {
		out.Counts[i] += c
	}
	out.N += src.N
	if src.Min < out.Min {
		out.Min = src.Min
	}
	if src.Max > out.Max {
		out.Max = src.Max
	}
	return &out
}
