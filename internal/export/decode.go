package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// Hand-written decoder for the result archive's core: the read-side
// mirror of append.go. It reads the core straight into a *sim.Result and
// its jobs, without reflection and without an intermediate archive
// value, and it accepts only what a strict encoding/json decode of
// resultCore accepts, to the same value:
//
//   - whitespace between tokens is skipped, so an indented core decodes;
//   - null reads as the field's zero value (nil for a slice or a section
//     frame), which is what encoding/json leaves in a fresh value;
//   - numbers are checked against JSON's grammar, then parsed by
//     strconv, which range-checks the integer fields;
//   - plain-ASCII strings are read in place; a string holding an escape,
//     a non-ASCII byte or a control byte is unquoted by encoding/json;
//   - keys match exactly, and an unknown or a repeated key is an error.
//     encoding/json would fold a key's case and merge a repeated one into
//     the first; no encoder writes either.
//
// FuzzDecodeResult holds it to the encoding/json reference decoder:
// whatever this decoder accepts, the reference accepts, to a deep-equal
// result.

// unmarshalCore decodes the result core at the front of data, then
// checks the framing after it (cutSections). It returns the result
// without payloads and the raw section bytes. Decode errors go through
// checkFormat, as decodeArchive's do, so an archive of another codec
// revision reports "codec version mismatch".
func unmarshalCore(data []byte) (res *sim.Result, metricsData, decisionsData []byte, err error) {
	d := coreDecoder{b: data}
	var c decodedCore
	object(&d, &c, coreFields)
	if err = checkFormat(data, d.err, c.format, resultFormat, "result"); err != nil {
		return nil, nil, nil, err
	}
	if c.res.Measured, err = measuredJobs(c.res.Jobs, c.measured); err != nil {
		return nil, nil, nil, err
	}
	if metricsData, decisionsData, err = cutSections(data[d.i:], c.metrics, c.decisions); err != nil {
		return nil, nil, nil, err
	}
	return &c.res, metricsData, decisionsData, nil
}

// measuredJobs resolves the core's measured indices into its jobs, so
// the result's Measured slice aliases the same *Job values as Jobs.
func measuredJobs(jobs []*sim.Job, measured []int) ([]*sim.Job, error) {
	if measured == nil {
		return nil, nil
	}
	if jobs == nil {
		return nil, fmt.Errorf("export: result archive: measured jobs but no jobs")
	}
	out := make([]*sim.Job, len(measured))
	for i, idx := range measured {
		if idx < 0 || idx >= len(jobs) {
			return nil, fmt.Errorf("export: result archive: measured index %d out of range (have %d jobs)", idx, len(jobs))
		}
		out[i] = jobs[idx]
	}
	return out, nil
}

// decodedCore is the core as read, before its measured indices resolve.
type decodedCore struct {
	format             string
	res                sim.Result
	measured           []int
	metrics, decisions *section
}

// field reads the value of one object key into a *T.
type field[T any] struct {
	name string
	read func(*coreDecoder, *T)
}

// The fields of each archived object, in the order the encoder writes
// them: object tries the next one in line before it searches.
var (
	coreFields = []field[decodedCore]{
		{"format", func(d *coreDecoder, c *decodedCore) { c.format = string(d.text()) }},
		{"jobs", func(d *coreDecoder, c *decodedCore) { c.res.Jobs = d.jobs() }},
		{"measured", func(d *coreDecoder, c *decodedCore) { c.measured = d.ints() }},
		{"makespan", func(d *coreDecoder, c *decodedCore) { c.res.Makespan = d.float() }},
		{"utilization", func(d *coreDecoder, c *decodedCore) { c.res.Utilization = d.float() }},
		{"productive_utilization", func(d *coreDecoder, c *decodedCore) { c.res.ProductiveUtilization = d.float() }},
		{"rounds", func(d *coreDecoder, c *decodedCore) { c.res.Rounds = d.int() }},
		{"place_times", func(d *coreDecoder, c *decodedCore) { c.res.PlaceTimes = d.floats() }},
		{"metrics", func(d *coreDecoder, c *decodedCore) { c.metrics = d.section() }},
		{"decisions", func(d *coreDecoder, c *decodedCore) { c.decisions = d.section() }},
		{"truncated", func(d *coreDecoder, c *decodedCore) { c.res.Truncated = d.bool() }},
		{"unfinished", func(d *coreDecoder, c *decodedCore) { c.res.Unfinished = d.int() }},
	}
	jobFields = []field[sim.Job]{
		{"id", func(d *coreDecoder, j *sim.Job) { j.Spec.ID = d.int() }},
		{"model", func(d *coreDecoder, j *sim.Job) { j.Spec.Model = d.model() }},
		{"class", func(d *coreDecoder, j *sim.Job) { j.Spec.Class = vprof.Class(d.int()) }},
		{"arrival", func(d *coreDecoder, j *sim.Job) { j.Spec.Arrival = d.float() }},
		{"demand", func(d *coreDecoder, j *sim.Job) { j.Spec.Demand = d.int() }},
		{"work", func(d *coreDecoder, j *sim.Job) { j.Spec.Work = d.float() }},
		{"remaining", func(d *coreDecoder, j *sim.Job) { j.Remaining = d.float() }},
		{"alloc", func(d *coreDecoder, j *sim.Job) { j.Alloc = d.gpuIDs() }},
		{"attained", func(d *coreDecoder, j *sim.Job) { j.Attained = d.float() }},
		{"started", func(d *coreDecoder, j *sim.Job) { j.Started = d.bool() }},
		{"first_run", func(d *coreDecoder, j *sim.Job) { j.FirstRun = d.float() }},
		{"finish", func(d *coreDecoder, j *sim.Job) { j.Finish = d.float() }},
		{"done", func(d *coreDecoder, j *sim.Job) { j.Done = d.bool() }},
		{"preemptions", func(d *coreDecoder, j *sim.Job) { j.Preemptions = d.int() }},
		{"migrations", func(d *coreDecoder, j *sim.Job) { j.Migrations = d.int() }},
		{"prev_alloc", func(d *coreDecoder, j *sim.Job) { j.PrevAlloc = d.gpuIDs() }},
	}
	sectionFields = []field[section]{
		{"bytes", func(d *coreDecoder, s *section) { s.Bytes = d.int64() }},
		{"sha256", func(d *coreDecoder, s *section) { s.SHA256 = string(d.text()) }},
	}
)

// coreDecoder scans one JSON value in b from offset i. The first error
// sticks and moves i to the end of b, so every later read fails too and
// every loop ends.
type coreDecoder struct {
	b   []byte
	i   int
	err error
	// models holds the distinct model names read so far: a core's jobs
	// name a handful of models, and share one string for each.
	models []string
	// gpus is the arena the jobs' allocations are read into.
	gpus []cluster.GPUID
}

func (d *coreDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.b)
}

// unexpected fails on the byte at the cursor, or on the end of input.
func (d *coreDecoder) unexpected(context string) {
	if d.i >= len(d.b) {
		d.fail(errors.New("unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("invalid character %q at offset %d %s", d.b[d.i], d.i, context))
}

// peek skips whitespace and returns the byte at the cursor, 0 at the
// end of input.
func (d *coreDecoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit (true, false or null) at the cursor.
func (d *coreDecoder) literal(lit string) {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return
	}
	d.unexpected("in literal " + lit)
}

// null consumes a null at the cursor, if there is one.
func (d *coreDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// open consumes the opening bracket of an object or an array, or a
// null, for which it returns false.
func (d *coreDecoder) open(bracket byte) bool {
	if d.null() {
		return false
	}
	if d.peek() != bracket {
		d.unexpected(fmt.Sprintf("looking for %q or null", bracket))
		return false
	}
	d.i++
	return true
}

// more reports whether the open object or array holds another element,
// consuming the comma before it, or else its closing bracket. first is
// whether no element has been read yet.
func (d *coreDecoder) more(closing byte, first bool) bool {
	switch c := d.peek(); {
	case c == closing:
		d.i++
		return false
	case first && d.i < len(d.b):
		return true
	case !first && c == ',':
		d.i++
		return true
	}
	d.unexpected("after an element")
	return false
}

// object reads an object into v through fields, and reports whether it
// was one: a null leaves v as it is.
func object[T any](d *coreDecoder, v *T, fields []field[T]) bool {
	if !d.open('{') {
		return false
	}
	var seen uint64
	next := 0
	for n := 0; d.more('}', n == 0); n++ {
		f := next
		if d.peek(); f < len(fields) && d.atKey(fields[f].name) {
			d.i += len(fields[f].name) + 2
		} else {
			key := d.str()
			for f = 0; f < len(fields) && fields[f].name != string(key); f++ {
			}
			if f == len(fields) {
				d.fail(fmt.Errorf("unknown field %q", key))
				return true
			}
		}
		if d.peek() != ':' {
			d.unexpected("after an object key")
			return true
		}
		d.i++
		if seen&(1<<f) != 0 {
			d.fail(fmt.Errorf("repeated field %q", fields[f].name))
			return true
		}
		seen |= 1 << f
		fields[f].read(d, v)
		next = f + 1
	}
	return true
}

// atKey reports whether the token at the cursor is the plain string
// name, which holds no quote or backslash.
func (d *coreDecoder) atKey(name string) bool {
	rest := d.b[d.i:]
	return len(rest) > len(name)+1 && rest[0] == '"' && rest[len(name)+1] == '"' &&
		string(rest[1:len(name)+1]) == name
}

// str reads a string token. A plain-ASCII string is returned in place;
// any other goes through encoding/json, which validates and unquotes it.
func (d *coreDecoder) str() []byte {
	if d.peek() != '"' {
		d.unexpected("looking for a string")
		return nil
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return d.b[start:j]
		case c < ' ' || c > '~' || c == '\\':
			return d.quoted()
		}
	}
	d.i = len(d.b)
	d.unexpected("in a string")
	return nil
}

// quoted unquotes the string token at the cursor through encoding/json.
func (d *coreDecoder) quoted() []byte {
	end := d.i + 1
	for ; end < len(d.b) && d.b[end] != '"'; end++ {
		if d.b[end] == '\\' {
			end++
		}
	}
	if end >= len(d.b) {
		d.i = len(d.b)
		d.unexpected("in a string")
		return nil
	}
	var s string
	if err := json.Unmarshal(d.b[d.i:end+1], &s); err != nil {
		d.fail(err)
		return nil
	}
	d.i = end + 1
	return []byte(s)
}

// text reads a string value; null reads as the empty string.
func (d *coreDecoder) text() []byte {
	if d.null() {
		return nil
	}
	return d.str()
}

// model reads a job's model name, sharing one string per distinct name.
func (d *coreDecoder) model() string {
	b := d.text()
	for _, m := range d.models {
		if m == string(b) {
			return m
		}
	}
	s := string(b)
	if len(d.models) < 32 {
		d.models = append(d.models, s)
	}
	return s
}

// number reads a number token after checking it against JSON's
// grammar; null reads as nil.
func (d *coreDecoder) number() []byte {
	if d.null() {
		return nil
	}
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.i = i
		d.unexpected("looking for a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			d.i = i
			d.unexpected("after a decimal point")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		at := i
		if i = digits(b, i); i == at {
			d.i = i
			d.unexpected("in an exponent")
			return nil
		}
	}
	d.i = i
	return b[start:i]
}

// digits returns the offset of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *coreDecoder) float() float64 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail(fmt.Errorf("cannot read number %s as a float64", tok))
	}
	return f
}

func (d *coreDecoder) int() int {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		d.fail(fmt.Errorf("cannot read number %s as an int", tok))
	}
	return n
}

func (d *coreDecoder) int64() int64 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.fail(fmt.Errorf("cannot read number %s as an int64", tok))
	}
	return n
}

func (d *coreDecoder) bool() bool {
	switch d.peek() {
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.unexpected("looking for a boolean")
	}
	return false
}

// flatLen returns the number of elements in the array of numbers whose
// body starts at the cursor, as its commas count them: the capacity to
// read it into. A malformed array fails later, in its read.
func (d *coreDecoder) flatLen() int {
	body := d.b[d.i:]
	end := bytes.IndexByte(body, ']')
	if end < 0 {
		return 0
	}
	if len(bytes.TrimLeft(body[:end], " \t\r\n")) == 0 {
		return 0
	}
	return bytes.Count(body[:end], []byte{','}) + 1
}

// ints reads an array of integers; null reads as nil and [] as an empty,
// non-nil slice.
func (d *coreDecoder) ints() []int {
	if !d.open('[') {
		return nil
	}
	s := make([]int, 0, d.flatLen())
	for n := 0; d.more(']', n == 0); n++ {
		s = append(s, d.int())
	}
	return s
}

// gpuIDs reads an allocation as ints reads integers, into a slice of
// the decoder's arena whose capacity ends at its length, so an append
// to one job's allocation never reaches the next one's.
func (d *coreDecoder) gpuIDs() []cluster.GPUID {
	if !d.open('[') {
		return nil
	}
	if n := d.flatLen(); d.gpus == nil || cap(d.gpus)-len(d.gpus) < n {
		d.gpus = make([]cluster.GPUID, 0, max(n, 2*cap(d.gpus), 256))
	}
	start := len(d.gpus)
	for n := 0; d.more(']', n == 0); n++ {
		d.gpus = append(d.gpus, cluster.GPUID(d.int()))
	}
	return d.gpus[start:len(d.gpus):len(d.gpus)]
}

// floats reads an array of numbers as ints reads integers.
func (d *coreDecoder) floats() []float64 {
	if !d.open('[') {
		return nil
	}
	s := make([]float64, 0, d.flatLen())
	for n := 0; d.more(']', n == 0); n++ {
		s = append(s, d.float())
	}
	return s
}

// jobs reads the jobs array into one backing array of sim.Job values;
// null reads as nil.
func (d *coreDecoder) jobs() []*sim.Job {
	if !d.open('[') {
		return nil
	}
	var all []sim.Job
	for n := 0; d.more(']', n == 0); n++ {
		all = append(all, sim.Job{})
		object(d, &all[n], jobFields)
	}
	jobs := make([]*sim.Job, len(all))
	for i := range all {
		jobs[i] = &all[i]
	}
	return jobs
}

// section reads a section frame; null reads as nil, no section.
func (d *coreDecoder) section() *section {
	s := new(section)
	if !object(d, s, sectionFields) {
		return nil
	}
	return s
}
