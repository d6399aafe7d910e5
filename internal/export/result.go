package export

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Canonical result codec: the deterministic, compact JSON round-trip of
// a *sim.Result the artifact store (internal/store) persists. The
// contract is exact reproduction, same rigor as the engine's stepping
// byte-identity suites:
//
//   - every field of Result and of every Job round-trips bit-for-bit
//     (floats use Go's shortest-round-trip encoding, which decodes back
//     to the identical float64);
//   - nil and empty slices are preserved as written (no omitempty on
//     slice fields), so reflect.DeepEqual holds across a round trip;
//   - Truncated/Unfinished are always encoded, so a truncated run can
//     never be mistaken for a complete one after a reload;
//   - a metrics payload on the result (Result.Metrics) is archived and
//     comes back as a metrics.ArchivedSink, so metrics.FromResult works
//     identically on live and loaded results — and a decision trace
//     (Result.Decisions) likewise archives and comes back as a
//     decision.ArchivedSink;
//   - the format field names the codec revision; the decoders reject
//     any other revision loudly instead of guessing, and reject missing
//     or trailing bytes.
//
// An archive is framed so a reader that needs only the result's core —
// jobs, measured set, summary fields, place times — never parses the
// telemetry that makes up most of its bytes:
//
//	<core JSON>\n<metrics section><decisions section>
//
// The core is one JSON value holding everything but the payloads; for
// each of metrics and decisions it holds either null (no section) or
// {"bytes":N,"sha256":"<hex>"}, and the section that follows is exactly
// N bytes of compact JSON whose SHA-256 is the recorded hash.
// UnmarshalResult decodes everything; UnmarshalResultCore decodes the
// core, checks the framing and the section hashes, and leaves the
// payloads unparsed, so both reject a damaged frame or section.
//
// The schema is the JSON encoding/json gives the archive types below and
// the metrics and decision payload types, under their struct tags. The
// decoders are encoding/json's; the encoder is not: it appends the same
// bytes through hand-written, reflection-free appenders (append.go) into
// one reused buffer, hashing each section as it goes.
// TestAppendersMatchEncodingJSON and FuzzDecodeResult hold every
// appender to encoding/json's bytes, so a field added to an archived
// type fails them until its appender writes it.
//
// Bumping the codec (any change to the archive schema or its semantics)
// means bumping ResultFormatVersion. Whitespace inside the core is not
// part of the format: an indented core decodes unchanged. The version is
// deliberately part of the store's on-disk layout, NOT of the simulation
// cache keys: a codec bump invalidates persisted artifacts without
// perturbing scenario keys or their golden-key tests.

// ResultFormatVersion names the result-codec revision. internal/store
// namespaces its object tree by this string, so a bump orphans (and
// eventually GCs) old artifacts instead of misreading them.
// v2 added the embedded decision trace; v3 dropped the util_series
// and events fields (the GPUs-in-use series lives in the metrics
// payload); v4 moved the metrics payload and decision trace out of the
// core into hash-framed sections after it.
const ResultFormatVersion = "v4"

// resultFormat is the full format tag embedded in every archive.
const resultFormat = "pal-result/" + ResultFormatVersion

// archivedJob flattens one sim.Job (spec + final mutable state) into the
// archive schema. Allocations are recorded as GPU IDs, plain ints on
// the wire; nil means the job held no GPUs when the run ended (always
// the case for completed runs, not necessarily for truncated ones).
type archivedJob struct {
	ID      int     `json:"id"`
	Model   string  `json:"model"`
	Class   int     `json:"class"`
	Arrival float64 `json:"arrival"`
	Demand  int     `json:"demand"`
	Work    float64 `json:"work"`

	Remaining   float64         `json:"remaining"`
	Alloc       []cluster.GPUID `json:"alloc"`
	Attained    float64         `json:"attained"`
	Started     bool            `json:"started"`
	FirstRun    float64         `json:"first_run"`
	Finish      float64         `json:"finish"`
	Done        bool            `json:"done"`
	Preemptions int             `json:"preemptions"`
	Migrations  int             `json:"migrations"`
	PrevAlloc   []cluster.GPUID `json:"prev_alloc"`
}

// resultCore is the archive's core value. Measured holds indices into
// Jobs so the decoded result's Measured slice aliases the same *Job
// values, exactly as the engine leaves it.
type resultCore struct {
	Format string `json:"format"`

	Jobs     []archivedJob `json:"jobs"`
	Measured []int         `json:"measured"`

	Makespan              float64 `json:"makespan"`
	Utilization           float64 `json:"utilization"`
	ProductiveUtilization float64 `json:"productive_utilization"`
	Rounds                int     `json:"rounds"`

	PlaceTimes []float64 `json:"place_times"`

	Metrics   *section `json:"metrics"`
	Decisions *section `json:"decisions"`

	Truncated  bool `json:"truncated"`
	Unfinished int  `json:"unfinished"`
}

// section frames one payload section in the core: the section's length
// in bytes and the hex SHA-256 of those bytes.
type section struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// cutSection splits the section framed by ref off the front of rest,
// checking its length and hash. A nil ref is an absent section.
func cutSection(rest []byte, ref *section, what string) (data, after []byte, err error) {
	if ref == nil {
		return nil, rest, nil
	}
	if ref.Bytes < 0 || ref.Bytes > int64(len(rest)) {
		return nil, nil, fmt.Errorf("export: result archive: %s section declares %d bytes, %d remain (truncated archive?)", what, ref.Bytes, len(rest))
	}
	data, after = rest[:ref.Bytes], rest[ref.Bytes:]
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != ref.SHA256 {
		return nil, nil, fmt.Errorf("export: result archive: %s section content hash mismatch", what)
	}
	return data, after, nil
}

// decodeSection strictly decodes one payload section: unknown fields,
// trailing data and a null body are rejected.
func decodeSection[T any](data []byte, what string) (*T, error) {
	var v *T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	if err == nil && !onlyWhitespace(data[dec.InputOffset():]) {
		err = errors.New("trailing data after the section")
	}
	if err == nil && v == nil {
		err = errors.New("null section")
	}
	if err != nil {
		return nil, fmt.Errorf("export: decode result archive: %s section: %w", what, err)
	}
	return v, nil
}

// EncodeResult writes res as a deterministic, versioned archive: the
// compact core line, then the metrics and decisions sections it frames.
// Encoding the same result twice produces identical bytes. A result
// carrying a metrics sink that does not expose a payload (anything
// other than a metrics.Collector or metrics.ArchivedSink) — or a
// decision sink that does not expose a trace — cannot be archived
// faithfully and is an error rather than a silent drop, as is a
// non-finite float anywhere in the archive. On error nothing is
// written.
func EncodeResult(w io.Writer, res *sim.Result) error {
	return withArchive(res, func(core, sections []byte) error {
		if _, err := w.Write(core); err != nil {
			return fmt.Errorf("export: encode result: %w", err)
		}
		if _, err := w.Write(sections); err != nil {
			return fmt.Errorf("export: encode result: %w", err)
		}
		return nil
	})
}

// MarshalResult returns the archive EncodeResult writes for res, in one
// slice of exactly its length.
func MarshalResult(res *sim.Result) ([]byte, error) {
	var out []byte
	err := withArchive(res, func(core, sections []byte) error {
		out = append(append(make([]byte, 0, len(core)+len(sections)), core...), sections...)
		return nil
	})
	return out, err
}

// encodeBufs holds the buffers archives are assembled in, so a sweep's
// encodes stop regrowing one from scratch per result.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// withArchive encodes res in a pooled buffer and hands use its core
// line and its sections, which use must not retain.
func withArchive(res *sim.Result, use func(core, sections []byte) error) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	data, coreAt, err := appendResult((*bp)[:0], res)
	*bp = data[:0]
	if err != nil {
		return err
	}
	return use(data[coreAt:], data[:coreAt])
}

// appendResult appends res's archive to b with its two parts swapped:
// first the sections, hashed as they are appended, then the core line
// that frames them, which starts at the returned offset.
func appendResult(b []byte, res *sim.Result) (data []byte, coreAt int, err error) {
	core, payload, decisions, err := newResultCore(res)
	if err != nil {
		return b, 0, err
	}
	e := jsonBuf{b: b}
	if payload != nil {
		if core.Metrics, err = e.frame("metrics", func() { e.payload(payload) }); err != nil {
			return e.b, 0, err
		}
	}
	if decisions != nil {
		if core.Decisions, err = e.frame("decisions", func() { e.trace(decisions) }); err != nil {
			return e.b, 0, err
		}
	}
	coreAt = len(e.b)
	e.resultCore(&core)
	e.b = append(e.b, '\n')
	if e.err != nil {
		return e.b, 0, fmt.Errorf("export: encode result: %w", e.err)
	}
	return e.b, coreAt, nil
}

// frame appends one payload section through add and frames the bytes it
// appended.
func (e *jsonBuf) frame(what string, add func()) (*section, error) {
	start := len(e.b)
	add()
	if e.err != nil {
		return nil, fmt.Errorf("export: encode %s section: %w", what, e.err)
	}
	sum := sha256.Sum256(e.b[start:])
	return &section{Bytes: int64(len(e.b) - start), SHA256: hex.EncodeToString(sum[:])}, nil
}

// newResultCore flattens res into its archive core, sections not yet
// framed, and extracts the payloads the sections will hold.
func newResultCore(res *sim.Result) (core resultCore, payload *metrics.Payload, decisions *decision.Trace, err error) {
	if res == nil {
		return core, nil, nil, fmt.Errorf("export: nil result")
	}
	if res.Metrics != nil {
		payload = metrics.FromResult(res)
		if payload == nil {
			return core, nil, nil, fmt.Errorf("export: result carries a metrics sink (%T) with no extractable payload", res.Metrics)
		}
	}
	if res.Decisions != nil {
		decisions = decision.FromResult(res)
		if decisions == nil {
			return core, nil, nil, fmt.Errorf("export: result carries a decision sink (%T) with no extractable trace", res.Decisions)
		}
	}
	core = resultCore{
		Format:                resultFormat,
		Makespan:              res.Makespan,
		Utilization:           res.Utilization,
		ProductiveUtilization: res.ProductiveUtilization,
		Rounds:                res.Rounds,
		PlaceTimes:            res.PlaceTimes,
		Truncated:             res.Truncated,
		Unfinished:            res.Unfinished,
	}
	if res.Jobs != nil {
		core.Jobs = make([]archivedJob, len(res.Jobs))
		index := make(map[*sim.Job]int, len(res.Jobs))
		for i, j := range res.Jobs {
			index[j] = i
			core.Jobs[i] = archivedJob{
				ID:          j.Spec.ID,
				Model:       j.Spec.Model,
				Class:       int(j.Spec.Class),
				Arrival:     j.Spec.Arrival,
				Demand:      j.Spec.Demand,
				Work:        j.Spec.Work,
				Remaining:   j.Remaining,
				Alloc:       j.Alloc,
				Attained:    j.Attained,
				Started:     j.Started,
				FirstRun:    j.FirstRun,
				Finish:      j.Finish,
				Done:        j.Done,
				Preemptions: j.Preemptions,
				Migrations:  j.Migrations,
				PrevAlloc:   j.PrevAlloc,
			}
		}
		if res.Measured != nil {
			core.Measured = make([]int, len(res.Measured))
			for i, j := range res.Measured {
				idx, ok := index[j]
				if !ok {
					return core, nil, nil, fmt.Errorf("export: measured job %d is not in Jobs", j.Spec.ID)
				}
				core.Measured[i] = idx
			}
		}
	} else if res.Measured != nil {
		return core, nil, nil, fmt.Errorf("export: result has Measured jobs but no Jobs")
	}
	return core, payload, decisions, nil
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

// UnmarshalResult decodes the whole archive in data: the core and both
// payload sections, each strictly. Unknown fields, a section whose
// length or hash disagrees with its frame, missing or trailing bytes
// and any format revision other than the current one are rejected — a
// store populated by a future codec fails loudly instead of yielding a
// silently lossy result. data is not retained.
func UnmarshalResult(data []byte) (*sim.Result, error) {
	res, metricsData, decisionsData, err := unmarshalCore(data)
	if err != nil {
		return nil, err
	}
	if metricsData != nil {
		payload, err := decodeSection[metrics.Payload](metricsData, "metrics")
		if err != nil {
			return nil, err
		}
		res.Metrics = metrics.NewArchivedSink(payload)
	}
	if decisionsData != nil {
		tr, err := decodeSection[decision.Trace](decisionsData, "decisions")
		if err != nil {
			return nil, err
		}
		res.Decisions = decision.NewArchivedSink(tr)
	}
	return res, nil
}

// UnmarshalResultCore decodes only the archive's core, for readers that
// never look at telemetry: the result comes back with nil Metrics and
// Decisions. The framing and both sections' hashes are still checked,
// so it rejects every damaged archive UnmarshalResult rejects short of
// a section whose bytes match their hash but do not decode — which no
// encoder writes. data is not retained.
func UnmarshalResultCore(data []byte) (*sim.Result, error) {
	res, _, _, err := unmarshalCore(data)
	return res, err
}

// unmarshalCore decodes the core, then checks the framing after it: one
// newline, then exactly the declared sections, each matching its hash.
// It returns the result without payloads and the raw section bytes.
func unmarshalCore(data []byte) (res *sim.Result, metricsData, decisionsData []byte, err error) {
	var arch resultCore
	end, err := decodeArchive(data, &arch, &arch.Format, resultFormat, "result")
	if err != nil {
		return nil, nil, nil, err
	}
	if res, err = arch.result(); err != nil {
		return nil, nil, nil, err
	}
	rest := data[end:]
	if len(rest) == 0 || rest[0] != '\n' {
		return nil, nil, nil, fmt.Errorf("export: result archive: core not followed by a newline")
	}
	if metricsData, rest, err = cutSection(rest[1:], arch.Metrics, "metrics"); err != nil {
		return nil, nil, nil, err
	}
	if decisionsData, rest, err = cutSection(rest, arch.Decisions, "decisions"); err != nil {
		return nil, nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("export: result archive: %d bytes of trailing data after the last section", len(rest))
	}
	return res, metricsData, decisionsData, nil
}

// result rebuilds the payload-free *sim.Result the core describes.
func (arch *resultCore) result() (*sim.Result, error) {
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
				Alloc:       aj.Alloc,
				Attained:    aj.Attained,
				Started:     aj.Started,
				FirstRun:    aj.FirstRun,
				Finish:      aj.Finish,
				Done:        aj.Done,
				Preemptions: aj.Preemptions,
				Migrations:  aj.Migrations,
				PrevAlloc:   aj.PrevAlloc,
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
	return res, nil
}
