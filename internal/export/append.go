package export

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Hand-written JSON appenders for the result archive's write path. Each
// writes exactly the bytes json.Marshal writes for the same value —
// fields in declaration order under their tags, omitempty fields left
// out when empty, nil slices and pointers as null, empty slices as [] —
// without reflection and into one caller-owned buffer.
// TestAppendersMatchEncodingJSON fills every field of every archived
// type and holds them to json.Marshal, so a field added to any of these
// types fails that test until its appender writes it.

// jsonBuf accumulates JSON. The first non-finite float sets err (the
// error json.Marshal returns for it); the bytes are then meaningless.
type jsonBuf struct {
	b   []byte
	err error
}

func (e *jsonBuf) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonBuf) str(s string) { e.b = appendString(e.b, s) }

func (e *jsonBuf) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *jsonBuf) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *jsonBuf) float(f float64) {
	var err error
	if e.b, err = appendFloat(e.b, f); err != nil && e.err == nil {
		e.err = err
	}
}

// floats appends a []float64: null when nil.
func (e *jsonBuf) floats(s []float64) {
	if s == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, f := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// appendInts appends a slice of integers: null when nil.
func appendInts[T ~int | ~int64](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// list appends a slice of structs through one element appender: null
// when nil.
func list[T any](e *jsonBuf, s []T, elem func(*jsonBuf, *T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &s[i])
	}
	e.b = append(e.b, ']')
}

// The omit* helpers append one omitempty field (key with its leading
// comma) unless its value is empty. No archived struct opens with an
// omitempty field, so the comma is always due.

func (e *jsonBuf) omitStr(key, s string) {
	if s != "" {
		e.raw(key)
		e.str(s)
	}
}

func (e *jsonBuf) omitInt(key string, v int64) {
	if v != 0 {
		e.raw(key)
		e.int(v)
	}
}

func (e *jsonBuf) omitFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

func (e *jsonBuf) omitBool(key string, v bool) {
	if v {
		e.raw(key)
		e.raw("true")
	}
}

// appendFloat appends f exactly as encoding/json encodes a float64: the
// shortest round-trip digits in 'f' format, or 'e' format below 1e-6 and
// from 1e21 on, with a two-digit negative exponent trimmed to one.
// Integral values below 1e15 in magnitude take strconv.AppendInt, which
// writes the same digits faster; -0 does not (it prints as "-0"). NaN
// and ±Inf are json's UnsupportedValueError, and nothing is appended.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// Out of int64's range the conversion's value is unspecified, but it
	// then never converts back to f inside the bounds.
	if i := int64(f); float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters json escapes (`"`, `\` and the HTML-sensitive `<`, `>`,
// `&`) is written verbatim; any other string goes through json.Marshal,
// which owns control bytes, HTML escaping, U+2028/U+2029 and invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// --- result core ---

func (e *jsonBuf) resultCore(c *resultCore) {
	e.raw(`{"format":`)
	e.str(c.Format)
	e.raw(`,"jobs":`)
	list(e, c.Jobs, (*jsonBuf).archivedJob)
	e.raw(`,"measured":`)
	e.b = appendInts(e.b, c.Measured)
	e.raw(`,"makespan":`)
	e.float(c.Makespan)
	e.raw(`,"utilization":`)
	e.float(c.Utilization)
	e.raw(`,"productive_utilization":`)
	e.float(c.ProductiveUtilization)
	e.raw(`,"rounds":`)
	e.int(int64(c.Rounds))
	e.raw(`,"place_times":`)
	e.floats(c.PlaceTimes)
	e.raw(`,"metrics":`)
	e.section(c.Metrics)
	e.raw(`,"decisions":`)
	e.section(c.Decisions)
	e.raw(`,"truncated":`)
	e.bool(c.Truncated)
	e.raw(`,"unfinished":`)
	e.int(int64(c.Unfinished))
	e.b = append(e.b, '}')
}

func (e *jsonBuf) archivedJob(j *archivedJob) {
	e.raw(`{"id":`)
	e.int(int64(j.ID))
	e.raw(`,"model":`)
	e.str(j.Model)
	e.raw(`,"class":`)
	e.int(int64(j.Class))
	e.raw(`,"arrival":`)
	e.float(j.Arrival)
	e.raw(`,"demand":`)
	e.int(int64(j.Demand))
	e.raw(`,"work":`)
	e.float(j.Work)
	e.raw(`,"remaining":`)
	e.float(j.Remaining)
	e.raw(`,"alloc":`)
	e.b = appendInts(e.b, j.Alloc)
	e.raw(`,"attained":`)
	e.float(j.Attained)
	e.raw(`,"started":`)
	e.bool(j.Started)
	e.raw(`,"first_run":`)
	e.float(j.FirstRun)
	e.raw(`,"finish":`)
	e.float(j.Finish)
	e.raw(`,"done":`)
	e.bool(j.Done)
	e.raw(`,"preemptions":`)
	e.int(int64(j.Preemptions))
	e.raw(`,"migrations":`)
	e.int(int64(j.Migrations))
	e.raw(`,"prev_alloc":`)
	e.b = appendInts(e.b, j.PrevAlloc)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) section(s *section) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw(`{"bytes":`)
	e.int(s.Bytes)
	e.raw(`,"sha256":`)
	e.str(s.SHA256)
	e.b = append(e.b, '}')
}

// --- metrics payload ---

func (e *jsonBuf) payload(p *metrics.Payload) {
	e.raw(`{"name":`)
	e.str(p.Name)
	e.omitStr(`,"policy":`, p.Policy)
	e.omitStr(`,"sched":`, p.Sched)
	e.omitStr(`,"key":`, p.Key)
	e.omitInt(`,"cluster_gpus":`, int64(p.ClusterGPUs))
	e.raw(`,"interval_rounds":`)
	e.int(int64(p.IntervalRounds))
	e.raw(`,"round_sec":`)
	e.float(p.RoundSec)
	e.raw(`,"time_base":`)
	e.float(p.TimeBase)
	e.raw(`,"series":`)
	list(e, p.Series, (*jsonBuf).series)
	e.raw(`,"jobs":`)
	list(e, p.Jobs, (*jsonBuf).jobRecord)
	if p.JCTHist != nil {
		e.raw(`,"jct_hist":`)
		e.hist(p.JCTHist)
	}
	if p.WaitHist != nil {
		e.raw(`,"wait_hist":`)
		e.hist(p.WaitHist)
	}
	e.raw(`,"aggregates":`)
	e.aggregates(&p.Aggregates)
	e.omitBool(`,"truncated":`, p.Truncated)
	e.omitInt(`,"unfinished":`, int64(p.Unfinished))
	e.b = append(e.b, '}')
}

func (e *jsonBuf) series(s *metrics.SeriesData) {
	e.raw(`{"name":`)
	e.str(s.Name)
	e.raw(`,"rounds":`)
	e.b = appendInts(e.b, s.Rounds)
	e.raw(`,"values":`)
	e.floats(s.Values)
	e.omitInt(`,"dropped":`, s.Dropped)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) jobRecord(r *metrics.JobRecord) {
	e.raw(`{"id":`)
	e.int(int64(r.ID))
	e.omitStr(`,"model":`, r.Model)
	e.raw(`,"class":`)
	e.str(r.Class)
	e.raw(`,"arrival":`)
	e.float(r.Arrival)
	e.raw(`,"demand":`)
	e.int(int64(r.Demand))
	e.raw(`,"work":`)
	e.float(r.Work)
	e.omitBool(`,"started":`, r.Started)
	e.omitFloat(`,"first_run":`, r.FirstRun)
	e.omitBool(`,"done":`, r.Done)
	e.omitFloat(`,"finish":`, r.Finish)
	e.omitFloat(`,"jct":`, r.JCT)
	e.omitFloat(`,"wait":`, r.Wait)
	e.omitBool(`,"rejected":`, r.Rejected)
	e.omitInt(`,"preemptions":`, int64(r.Preemptions))
	e.omitInt(`,"migrations":`, int64(r.Migrations))
	e.omitBool(`,"measured":`, r.Measured)
	e.b = append(e.b, '}')
}

// hist appends a StreamingHist, whose fields carry no tags and so keep
// their Go names.
func (e *jsonBuf) hist(h *stats.StreamingHist) {
	e.raw(`{"Lo":`)
	e.float(h.Lo)
	e.raw(`,"Hi":`)
	e.float(h.Hi)
	e.raw(`,"Counts":`)
	e.b = appendInts(e.b, h.Counts)
	e.raw(`,"N":`)
	e.int(h.N)
	e.raw(`,"Min":`)
	e.float(h.Min)
	e.raw(`,"Max":`)
	e.float(h.Max)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) aggregates(a *metrics.Aggregates) {
	e.raw(`{"jobs":`)
	e.int(int64(a.Jobs))
	e.raw(`,"measured":`)
	e.int(int64(a.Measured))
	e.raw(`,"avg_jct_sec":`)
	e.float(a.AvgJCT)
	e.raw(`,"p50_jct_sec":`)
	e.float(a.P50JCT)
	e.raw(`,"p90_jct_sec":`)
	e.float(a.P90JCT)
	e.raw(`,"p99_jct_sec":`)
	e.float(a.P99JCT)
	e.raw(`,"mean_wait_sec":`)
	e.float(a.MeanWait)
	e.raw(`,"p99_wait_sec":`)
	e.float(a.P99Wait)
	e.raw(`,"makespan_sec":`)
	e.float(a.Makespan)
	e.raw(`,"utilization":`)
	e.float(a.Utilization)
	e.raw(`,"productive_utilization":`)
	e.float(a.ProductiveUtilization)
	e.raw(`,"rounds":`)
	e.int(int64(a.Rounds))
	e.b = append(e.b, '}')
}

// --- decision trace ---

func (e *jsonBuf) trace(t *decision.Trace) {
	e.raw(`{"name":`)
	e.str(t.Name)
	e.omitStr(`,"policy":`, t.Policy)
	e.omitStr(`,"sched":`, t.Sched)
	e.omitStr(`,"key":`, t.Key)
	e.raw(`,"round_sec":`)
	e.float(t.RoundSec)
	e.raw(`,"time_base":`)
	e.float(t.TimeBase)
	if len(t.Facets) > 0 {
		e.raw(`,"facets":[`)
		for i, f := range t.Facets {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.str(f)
		}
		e.b = append(e.b, ']')
	}
	e.raw(`,"records":`)
	list(e, t.Records, (*jsonBuf).record)
	e.omitInt(`,"dropped":`, t.Dropped)
	e.omitBool(`,"truncated":`, t.Truncated)
	e.omitBool(`,"run_truncated":`, t.RunTruncated)
	e.omitInt(`,"unfinished":`, int64(t.Unfinished))
	e.raw(`,"rounds":`)
	e.int(t.Rounds)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) record(r *decision.Record) {
	e.raw(`{"round":`)
	e.int(r.Round)
	e.raw(`,"start":`)
	e.float(r.Start)
	e.raw(`,"rounds":`)
	e.int(int64(r.Rounds))
	e.raw(`,"order":`)
	list(e, r.Order, (*jsonBuf).orderEntry)
	e.raw(`,"prefix":`)
	e.int(int64(r.Prefix))
	e.raw(`,"waiting":`)
	e.int(int64(r.Waiting))
	e.raw(`,"placements":`)
	list(e, r.Placements, (*jsonBuf).placement)
	e.raw(`,"preemptions":`)
	list(e, r.Preemptions, (*jsonBuf).preemption)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) orderEntry(o *decision.OrderEntry) {
	e.raw(`{"job":`)
	e.int(int64(o.Job))
	e.raw(`,"demand":`)
	e.int(int64(o.Demand))
	e.raw(`,"attained":`)
	e.float(o.Attained)
	e.omitBool(`,"running":`, o.Running)
	e.raw(`,"ceiling":`)
	e.float(o.Ceiling)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) placement(p *decision.Placement) {
	e.raw(`{"job":`)
	e.int(int64(p.Job))
	e.raw(`,"gpus":`)
	e.int(int64(p.GPUs))
	e.raw(`,"nodes":`)
	e.int(int64(p.Nodes))
	e.raw(`,"racks":`)
	e.int(int64(p.Racks))
	e.raw(`,"locality":`)
	e.float(p.Locality)
	e.raw(`,"pm_score":`)
	e.float(p.PMScore)
	e.raw(`,"slowdown":`)
	e.float(p.Slowdown)
	e.omitBool(`,"started":`, p.Started)
	e.omitBool(`,"resumed":`, p.Resumed)
	e.omitBool(`,"migrated":`, p.Migrated)
	e.b = append(e.b, '}')
}

func (e *jsonBuf) preemption(p *decision.Preemption) {
	e.raw(`{"job":`)
	e.int(int64(p.Job))
	e.raw(`,"gpus":`)
	e.int(int64(p.GPUs))
	e.b = append(e.b, '}')
}
