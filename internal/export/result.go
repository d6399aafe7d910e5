package export

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Canonical result codec: the deterministic, compact JSON round-trip of
// a *sim.Result the artifact store (internal/store) persists, decoded in
// one strict pass (archive.go). The contract is exact reproduction, same
// rigor as the engine's stepping byte-identity suites:
//
//   - every field of Result and of every Job round-trips bit-for-bit
//     (floats use Go's shortest-round-trip encoding, which decodes back
//     to the identical float64);
//   - nil and empty slices are preserved as written (no omitempty on
//     slice fields), so reflect.DeepEqual holds across a round trip;
//   - Truncated/Unfinished are always encoded, so a truncated run can
//     never be mistaken for a complete one after a reload;
//   - a metrics payload on the result (Result.Metrics) is embedded in
//     the archive and comes back as a metrics.ArchivedSink, so
//     metrics.FromResult works identically on live and loaded results —
//     and a decision trace (Result.Decisions) likewise embeds and comes
//     back as a decision.ArchivedSink;
//   - the format field names the codec revision; DecodeResult rejects
//     any other revision loudly instead of guessing, and rejects trailing
//     data after the archive.
//
// Bumping the codec (any change to the archive schema or its semantics)
// means bumping ResultFormatVersion. Whitespace is not part of the
// format: archives indented by earlier encoders decode unchanged. The
// version is deliberately part of the store's on-disk layout, NOT of the
// simulation cache keys: a codec bump invalidates persisted artifacts
// without perturbing RunSpec/scenario keys or their golden-key tests.

// ResultFormatVersion names the result-codec revision. internal/store
// namespaces its object tree by this string, so a bump orphans (and
// eventually GCs) old artifacts instead of misreading them.
// v2 added the embedded decision trace; v3 dropped the util_series
// and events fields (the GPUs-in-use series lives in the metrics
// payload).
const ResultFormatVersion = "v3"

// resultFormat is the full format tag embedded in every archive.
const resultFormat = "pal-result/" + ResultFormatVersion

// archivedJob flattens one sim.Job (spec + final mutable state) into the
// archive schema. Allocations are recorded as plain ints; nil means the
// job held no GPUs when the run ended (always the case for completed
// runs, not necessarily for truncated ones).
type archivedJob struct {
	ID      int     `json:"id"`
	Model   string  `json:"model"`
	Class   int     `json:"class"`
	Arrival float64 `json:"arrival"`
	Demand  int     `json:"demand"`
	Work    float64 `json:"work"`

	Remaining   float64 `json:"remaining"`
	Alloc       []int   `json:"alloc"`
	Attained    float64 `json:"attained"`
	Started     bool    `json:"started"`
	FirstRun    float64 `json:"first_run"`
	Finish      float64 `json:"finish"`
	Done        bool    `json:"done"`
	Preemptions int     `json:"preemptions"`
	Migrations  int     `json:"migrations"`
	PrevAlloc   []int   `json:"prev_alloc"`
}

// resultArchive is the archive schema. Measured holds indices into Jobs
// so the decoded result's Measured slice aliases the same *Job values,
// exactly as the engine leaves it.
type resultArchive struct {
	Format string `json:"format"`

	Jobs     []archivedJob `json:"jobs"`
	Measured []int         `json:"measured"`

	Makespan              float64 `json:"makespan"`
	Utilization           float64 `json:"utilization"`
	ProductiveUtilization float64 `json:"productive_utilization"`
	Rounds                int     `json:"rounds"`

	PlaceTimes []float64 `json:"place_times"`

	Metrics   *metrics.Payload `json:"metrics"`
	Decisions *decision.Trace  `json:"decisions"`

	Truncated  bool `json:"truncated"`
	Unfinished int  `json:"unfinished"`
}

// gpusToInts converts an allocation for archiving, preserving nil.
func gpusToInts(a []cluster.GPUID) []int {
	if a == nil {
		return nil
	}
	out := make([]int, len(a))
	for i, g := range a {
		out[i] = int(g)
	}
	return out
}

// intsToGPUs is the inverse of gpusToInts.
func intsToGPUs(a []int) []cluster.GPUID {
	if a == nil {
		return nil
	}
	out := make([]cluster.GPUID, len(a))
	for i, g := range a {
		out[i] = cluster.GPUID(g)
	}
	return out
}

// EncodeResult writes res as a deterministic, versioned, compact JSON
// archive. Encoding the same result twice produces identical bytes. A
// result carrying a metrics sink that does not expose a payload
// (anything other than a metrics.Collector or metrics.ArchivedSink) —
// or a decision sink that does not expose a trace — cannot be archived
// faithfully and is an error rather than a silent drop.
func EncodeResult(w io.Writer, res *sim.Result) error {
	if res == nil {
		return fmt.Errorf("export: nil result")
	}
	var payload *metrics.Payload
	if res.Metrics != nil {
		payload = metrics.FromResult(res)
		if payload == nil {
			return fmt.Errorf("export: result carries a metrics sink (%T) with no extractable payload", res.Metrics)
		}
	}
	var decisions *decision.Trace
	if res.Decisions != nil {
		decisions = decision.FromResult(res)
		if decisions == nil {
			return fmt.Errorf("export: result carries a decision sink (%T) with no extractable trace", res.Decisions)
		}
	}
	arch := resultArchive{
		Format:                resultFormat,
		Makespan:              res.Makespan,
		Utilization:           res.Utilization,
		ProductiveUtilization: res.ProductiveUtilization,
		Rounds:                res.Rounds,
		PlaceTimes:            res.PlaceTimes,
		Metrics:               payload,
		Decisions:             decisions,
		Truncated:             res.Truncated,
		Unfinished:            res.Unfinished,
	}
	if res.Jobs != nil {
		arch.Jobs = make([]archivedJob, len(res.Jobs))
		index := make(map[*sim.Job]int, len(res.Jobs))
		for i, j := range res.Jobs {
			index[j] = i
			arch.Jobs[i] = archivedJob{
				ID:          j.Spec.ID,
				Model:       j.Spec.Model,
				Class:       int(j.Spec.Class),
				Arrival:     j.Spec.Arrival,
				Demand:      j.Spec.Demand,
				Work:        j.Spec.Work,
				Remaining:   j.Remaining,
				Alloc:       gpusToInts(j.Alloc),
				Attained:    j.Attained,
				Started:     j.Started,
				FirstRun:    j.FirstRun,
				Finish:      j.Finish,
				Done:        j.Done,
				Preemptions: j.Preemptions,
				Migrations:  j.Migrations,
				PrevAlloc:   gpusToInts(j.PrevAlloc),
			}
		}
		if res.Measured != nil {
			arch.Measured = make([]int, len(res.Measured))
			for i, j := range res.Measured {
				idx, ok := index[j]
				if !ok {
					return fmt.Errorf("export: measured job %d is not in Jobs", j.Spec.ID)
				}
				arch.Measured[i] = idx
			}
		}
	} else if res.Measured != nil {
		return fmt.Errorf("export: result has Measured jobs but no Jobs")
	}
	return encodeArchive(w, &arch, "result")
}

// DecodeResult reads an archive written by EncodeResult back into a
// *sim.Result; see UnmarshalResult for what it rejects.
func DecodeResult(r io.Reader) (*sim.Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("export: read result archive: %w", err)
	}
	return UnmarshalResult(data)
}

// UnmarshalResult decodes the archive in data, in one strict pass.
// Unknown fields, trailing data after the archive and any format
// revision other than the current one are rejected — a store populated
// by a future codec fails loudly instead of yielding a silently lossy
// result. data is not retained.
func UnmarshalResult(data []byte) (*sim.Result, error) {
	var arch resultArchive
	if err := decodeArchive(data, &arch, &arch.Format, resultFormat, "result"); err != nil {
		return nil, err
	}

	res := &sim.Result{
		Makespan:              arch.Makespan,
		Utilization:           arch.Utilization,
		ProductiveUtilization: arch.ProductiveUtilization,
		Rounds:                arch.Rounds,
		PlaceTimes:            arch.PlaceTimes,
		Truncated:             arch.Truncated,
		Unfinished:            arch.Unfinished,
	}
	if arch.Jobs != nil {
		res.Jobs = make([]*sim.Job, len(arch.Jobs))
		for i, aj := range arch.Jobs {
			res.Jobs[i] = &sim.Job{
				Spec: trace.JobSpec{
					ID:      aj.ID,
					Model:   aj.Model,
					Class:   vprof.Class(aj.Class),
					Arrival: aj.Arrival,
					Demand:  aj.Demand,
					Work:    aj.Work,
				},
				Remaining:   aj.Remaining,
				Alloc:       intsToGPUs(aj.Alloc),
				Attained:    aj.Attained,
				Started:     aj.Started,
				FirstRun:    aj.FirstRun,
				Finish:      aj.Finish,
				Done:        aj.Done,
				Preemptions: aj.Preemptions,
				Migrations:  aj.Migrations,
				PrevAlloc:   intsToGPUs(aj.PrevAlloc),
			}
		}
	}
	if arch.Measured != nil {
		if arch.Jobs == nil {
			return nil, fmt.Errorf("export: result archive: measured jobs but no jobs")
		}
		res.Measured = make([]*sim.Job, len(arch.Measured))
		for i, idx := range arch.Measured {
			if idx < 0 || idx >= len(res.Jobs) {
				return nil, fmt.Errorf("export: result archive: measured index %d out of range (have %d jobs)", idx, len(res.Jobs))
			}
			res.Measured[i] = res.Jobs[idx]
		}
	}
	if arch.Metrics != nil {
		res.Metrics = metrics.NewArchivedSink(arch.Metrics)
	}
	if arch.Decisions != nil {
		res.Decisions = decision.NewArchivedSink(arch.Decisions)
	}
	return res, nil
}
