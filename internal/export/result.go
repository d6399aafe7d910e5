package export

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
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
//   - the header's format tag names the codec revision; the decoders
//     reject any other revision loudly instead of guessing, and reject
//     missing or trailing bytes.
//
// An archive is the shared frame (archive.go) around the result's core,
// followed by the telemetry sections the core frames in turn, so a
// reader that needs only the core — jobs, measured set, summary fields,
// place times — never parses the telemetry that makes up most of an
// archive's bytes:
//
//	<header>\n<core JSON>\n<metrics section><decisions section>
//
// The core is the header's body: one JSON value holding everything but
// the payloads. For each of metrics and decisions it holds either null
// (no section) or {"bytes":N,"sha256":"<hex>"}, and the section that
// follows is exactly N bytes of compact JSON whose SHA-256 is the
// recorded hash. Each decoder checks exactly what it parses:
// UnmarshalResult checks the header, the core's hash and both sections'
// hashes; UnmarshalResultCore checks the header, the core's hash and the
// sections' lengths, and hashes no section byte, since it parses none.
//
// The schema is the JSON encoding/json gives the archive types below and
// the metrics and decision payload types, under their struct tags. The
// encoder appends those bytes through hand-written, reflection-free
// appenders (append.go) into one reused buffer, hashing each section as
// it goes. TestAppendersMatchEncodingJSON and FuzzDecodeResult hold every
// appender to encoding/json's bytes, so a field added to an archived
// type fails them until its appender writes it. The core, which every
// read decodes, has a hand-written decoder too (decode.go) that reads it
// straight into a *sim.Result; FuzzDecodeResult holds it to
// encoding/json's decode of resultCore, which the tests keep as the
// reference. The payload sections, read only by full decodes, stay
// encoding/json's.
//
// Bumping the codec (any change to the archive schema or its semantics)
// means bumping ResultFormatVersion. The body is hashed byte for byte,
// so whitespace inside the core is part of the archive. The version is
// deliberately part of the store's on-disk layout, NOT of the simulation
// cache keys: a codec bump invalidates persisted artifacts without
// perturbing scenario keys or their golden-key tests.

// ResultFormatVersion names the result-codec revision. internal/store
// namespaces its object tree by this string, so a bump orphans (and
// eventually GCs) old artifacts instead of misreading them.
// v2 added the embedded decision trace; v3 dropped the util_series
// and events fields (the GPUs-in-use series lives in the metrics
// payload); v4 moved the metrics payload and decision trace out of the
// core into hash-framed sections after it; v5 moved the format tag into
// a header line that frames the core with its own hash.
const ResultFormatVersion = "v5"

// resultFormat is the full format tag in every archive's header.
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
	Jobs     []archivedJob `json:"jobs"`
	Measured []int         `json:"measured"`

	Makespan              float64 `json:"makespan"`
	Utilization           float64 `json:"utilization"`
	ProductiveUtilization float64 `json:"productive_utilization"`
	Rounds                int     `json:"rounds"`

	PlaceTimes []float64 `json:"place_times"`

	Metrics   *frame `json:"metrics"`
	Decisions *frame `json:"decisions"`

	Truncated  bool `json:"truncated"`
	Unfinished int  `json:"unfinished"`
}

// decodeSection strictly decodes one payload section.
func decodeSection[T any](data []byte, what string) (*T, error) {
	v, err := decodeJSON[T](data)
	if err != nil {
		return nil, fmt.Errorf("export: decode result archive: %s section: %w", what, err)
	}
	return v, nil
}

// EncodeResult writes res as a deterministic, versioned archive: the
// header, the compact core line it frames, then the metrics and
// decisions sections the core frames. Encoding the same result twice
// produces identical bytes. A result carrying a metrics sink that does
// not expose a payload (anything other than a metrics.Collector or
// metrics.ArchivedSink) — or a decision sink that does not expose a
// trace — cannot be archived faithfully and is an error rather than a
// silent drop, as is a non-finite float anywhere in the archive. On
// error nothing is written.
func EncodeResult(w io.Writer, res *sim.Result) error {
	return withArchive(res, func(parts ...[]byte) error {
		for _, p := range parts {
			if _, err := w.Write(p); err != nil {
				return fmt.Errorf("export: encode result: %w", err)
			}
		}
		return nil
	})
}

// MarshalResult returns the archive EncodeResult writes for res, in one
// slice of exactly its length.
func MarshalResult(res *sim.Result) ([]byte, error) {
	var out []byte
	err := withArchive(res, func(parts ...[]byte) error {
		out = bytes.Join(parts, nil)
		return nil
	})
	return out, err
}

// encodeBufs holds the buffers archives are assembled in, so a sweep's
// encodes stop regrowing one from scratch per result.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// withArchive encodes res in a pooled buffer and hands use the
// archive's parts in order — header, core, sections — which use must
// not retain.
func withArchive(res *sim.Result, use func(parts ...[]byte) error) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	data, coreAt, headerAt, err := appendResult((*bp)[:0], res)
	*bp = data[:0]
	if err != nil {
		return err
	}
	return use(data[headerAt:], data[coreAt:headerAt], data[:coreAt])
}

// appendResult appends res's archive to b with its three parts in
// reverse: first the sections, hashed as they are appended, then the
// core line that frames them, starting at coreAt, then the header that
// frames the core, starting at headerAt.
func appendResult(b []byte, res *sim.Result) (data []byte, coreAt, headerAt int, err error) {
	core, payload, decisions, err := newResultCore(res)
	if err != nil {
		return b, 0, 0, err
	}
	e := jsonBuf{b: b}
	if payload != nil {
		if core.Metrics, err = e.section("metrics", func() { e.payload(payload) }); err != nil {
			return e.b, 0, 0, err
		}
	}
	if decisions != nil {
		if core.Decisions, err = e.section("decisions", func() { e.trace(decisions) }); err != nil {
			return e.b, 0, 0, err
		}
	}
	coreAt = len(e.b)
	e.resultCore(&core)
	e.b = append(e.b, '\n')
	if e.err != nil {
		return e.b, 0, 0, fmt.Errorf("export: encode result: %w", e.err)
	}
	headerAt = len(e.b)
	return appendHeader(e.b, resultFormat, e.b[coreAt:]), coreAt, headerAt, nil
}

// section appends one payload section through add and frames the bytes
// it appended.
func (e *jsonBuf) section(what string, add func()) (*frame, error) {
	start := len(e.b)
	add()
	if e.err != nil {
		return nil, fmt.Errorf("export: encode %s section: %w", what, e.err)
	}
	return newFrame(e.b[start:]), nil
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
// payload sections, each strictly, after checking the header and every
// hash. Unknown fields, a span whose length or hash disagrees with its
// frame, missing or trailing bytes and any format revision other than
// the current one are rejected — a store populated by a future codec
// fails loudly instead of yielding a silently lossy result. data is not
// retained.
func UnmarshalResult(data []byte) (*sim.Result, error) {
	res, metricsData, decisionsData, err := unmarshalCore(data, true)
	if err != nil {
		return nil, err
	}
	if err := attachPayloads(res, metricsData, decisionsData); err != nil {
		return nil, err
	}
	return res, nil
}

// attachPayloads decodes the raw payload sections onto res as archived
// sinks; a nil section attaches nothing.
func attachPayloads(res *sim.Result, metricsData, decisionsData []byte) error {
	if metricsData != nil {
		payload, err := decodeSection[metrics.Payload](metricsData, "metrics")
		if err != nil {
			return err
		}
		res.Metrics = metrics.NewArchivedSink(payload)
	}
	if decisionsData != nil {
		tr, err := decodeSection[decision.Trace](decisionsData, "decisions")
		if err != nil {
			return err
		}
		res.Decisions = decision.NewArchivedSink(tr)
	}
	return nil
}

// UnmarshalResultCore decodes only the archive's core, for readers that
// never look at telemetry: the result comes back with nil Metrics and
// Decisions. It checks the header, the core's hash and that the
// sections fill the rest of the archive exactly, but hashes no section
// byte: a section damaged without a change in length is left to the
// full decode, which parses it. data is not retained.
func UnmarshalResultCore(data []byte) (*sim.Result, error) {
	res, _, _, err := unmarshalCore(data, false)
	return res, err
}

// cutSections checks the framing after the core: exactly the sections
// the core frames, each of its length and, when hash is set, matching
// its hash.
func cutSections(rest []byte, metricsRef, decisionsRef *frame, hash bool) (metricsData, decisionsData []byte, err error) {
	if metricsRef != nil {
		if metricsData, rest, err = metricsRef.cut(rest, hash, "result", "metrics section"); err != nil {
			return nil, nil, err
		}
	}
	if decisionsRef != nil {
		if decisionsData, rest, err = decisionsRef.cut(rest, hash, "result", "decisions section"); err != nil {
			return nil, nil, err
		}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("export: result archive: %d bytes of trailing data after the last section", len(rest))
	}
	return metricsData, decisionsData, nil
}
