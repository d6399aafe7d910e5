package export

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// marshalSection encodes v with encoding/json as one payload section and
// frames it: the reference the section appenders are held to.
func marshalSection(v any, what string) (*frame, []byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, nil, fmt.Errorf("export: encode %s section: %w", what, err)
	}
	sum := sha256.Sum256(data)
	return &frame{Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}, data, nil
}

// referenceEncodeResult writes the archive EncodeResult writes, through
// encoding/json: the codec's definition, against which the hand-written
// appenders are checked.
func referenceEncodeResult(w io.Writer, res *sim.Result) error {
	core, payload, decisions, err := newResultCore(res)
	if err != nil {
		return err
	}
	var sections [][]byte
	if payload != nil {
		ref, data, err := marshalSection(payload, "metrics")
		if err != nil {
			return err
		}
		core.Metrics, sections = ref, append(sections, data)
	}
	if decisions != nil {
		ref, data, err := marshalSection(decisions, "decisions")
		if err != nil {
			return err
		}
		core.Decisions, sections = ref, append(sections, data)
	}
	body, err := json.Marshal(&core)
	if err != nil {
		return err
	}
	body = append(body, '\n')
	ref, err := json.Marshal(&header{Format: resultFormat, Body: newFrame(body)})
	if err != nil {
		return err
	}
	for _, data := range append([][]byte{append(ref, '\n'), body}, sections...) {
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// Values the filler draws from. The floats cover both of json's formats
// and the boundaries between them and the integer fast path; the
// strings cover every class json escapes or replaces.
var (
	testFloats = []float64{
		1, -1, 0.5, 1.0 / 3, 123456.789, -2.5e-3,
		5e-7, -5e-7, 1e-6, 9.99e-7, 1e-7, 1.5e-10, math.SmallestNonzeroFloat64,
		1e21, -1e21, 1e20, 9.999999e20, 1.5e300, math.MaxFloat64,
		1<<53 + 1, 1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 0.5, 4503599627370495.5,
	}
	testStrings = []string{
		"plain", "resnet50", "a<b>&c", "line\u2028sep\u2029", "ctl\x01\x1f\n\t",
		"bad\xff\xfeutf8", `q"uote`, `back\slash`, "café", "del\x7f", " ~",
	}
)

// filler sets every exported field reachable from a value, recursively.
// In full mode every field ends up non-empty — strings non-empty,
// numbers non-zero, bools true, slices non-empty, pointers set — so a
// field the appender forgets shows in json.Marshal's bytes only. In
// random mode any field may also be empty, nil or zero, -0 included.
type filler struct {
	t    *testing.T
	r    *rand.Rand
	full bool
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		if f.full || f.r.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		n := 1 + f.r.Intn(3)
		if !f.full {
			switch f.r.Intn(3) {
			case 0:
				return // nil
			case 1:
				n = 0
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			f.fill(v.Index(i))
		}
	case reflect.String:
		if f.full || f.r.Intn(4) > 0 {
			v.SetString(testStrings[f.r.Intn(len(testStrings))])
		}
	case reflect.Int, reflect.Int64:
		if x := f.r.Int63n(1<<40) - 1<<39; f.full && x == 0 {
			v.SetInt(1)
		} else if f.full || f.r.Intn(4) > 0 {
			v.SetInt(x)
		}
	case reflect.Float64:
		switch {
		case f.full || f.r.Intn(4) > 1:
			v.SetFloat(testFloats[f.r.Intn(len(testFloats))])
		case f.r.Intn(2) == 0:
			v.SetFloat(math.Copysign(0, -1))
		default:
			v.SetFloat(f.r.NormFloat64() * math.Pow(10, float64(f.r.Intn(50)-25)))
		}
	case reflect.Bool:
		v.SetBool(f.full || f.r.Intn(2) == 0)
	default:
		f.t.Fatalf("filler: no case for %s (kind %s); teach the filler and the appender", v.Type(), v.Kind())
	}
}

// appenderCase pairs an archived type with its appender.
type appenderCase struct {
	typ reflect.Type
	app func(*jsonBuf, any)
}

func appCase[T any](app func(*jsonBuf, *T)) appenderCase {
	return appenderCase{reflect.TypeFor[T](), func(e *jsonBuf, v any) { app(e, v.(*T)) }}
}

var appenderCases = []appenderCase{
	appCase((*jsonBuf).header),
	appCase((*jsonBuf).resultCore),
	appCase((*jsonBuf).archivedJob),
	appCase((*jsonBuf).frame),
	appCase((*jsonBuf).payload),
	appCase((*jsonBuf).series),
	appCase((*jsonBuf).jobRecord),
	appCase((*jsonBuf).aggregates),
	appCase((*jsonBuf).hist),
	appCase((*jsonBuf).trace),
	appCase((*jsonBuf).record),
	appCase((*jsonBuf).orderEntry),
	appCase((*jsonBuf).placement),
	appCase((*jsonBuf).preemption),
}

// checkAppender requires the appender's bytes for *v to equal
// json.Marshal's.
func checkAppender(t *testing.T, c appenderCase, v reflect.Value) {
	t.Helper()
	want, err := json.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	var e jsonBuf
	c.app(&e, v.Interface())
	if e.err != nil {
		t.Fatalf("appender failed: %v", e.err)
	}
	if !bytes.Equal(e.b, want) {
		t.Fatalf("appender differs from encoding/json:\n got %s\nwant %s", e.b, want)
	}
}

// TestAppendersMatchEncodingJSON is the appenders' drift guard: for
// every archived type, zero, fully filled and randomly filled values
// must encode to json.Marshal's bytes, and so must the float and string
// primitives on the values where json's encoding has edges.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	for _, c := range appenderCases {
		t.Run(c.typ.Name(), func(t *testing.T) {
			checkAppender(t, c, reflect.New(c.typ))
			r := rand.New(rand.NewSource(1))
			full := &filler{t: t, r: r, full: true}
			random := &filler{t: t, r: r}
			for range 50 {
				for _, f := range []*filler{full, random} {
					v := reflect.New(c.typ)
					f.fill(v.Elem())
					checkAppender(t, c, v)
				}
			}
		})
	}

	t.Run("floats", func(t *testing.T) {
		fs := append([]float64{0, math.Copysign(0, -1), 1e-6 - 1e-22, 1e21 - 1e5, 1<<63 - 1, -(1 << 63)}, testFloats...)
		r := rand.New(rand.NewSource(2))
		for range 20000 {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				fs = append(fs, f)
			}
			fs = append(fs, float64(r.Int63n(2e15)-1e15), float64(r.Int63n(1e6))/8)
		}
		for _, f := range fs {
			for _, f := range []float64{f, -f} {
				want, _ := json.Marshal(f)
				got, err := appendFloat(nil, f)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("appendFloat(%v) = %s, %v; want %s", f, got, err, want)
				}
			}
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, want := json.Marshal(f)
			if got, err := appendFloat([]byte("x"), f); err == nil || err.Error() != want.Error() || string(got) != "x" {
				t.Errorf("appendFloat(%v) = %q, %v; want nothing appended and %v", f, got, err, want)
			}
		}
	})

	t.Run("strings", func(t *testing.T) {
		ss := append([]string{"", " ", "\x00", "\xed\xa0\x80", "é<", strings.Repeat("x", 100)}, testStrings...)
		r := rand.New(rand.NewSource(3))
		for range 5000 {
			b := make([]byte, r.Intn(8))
			for i := range b {
				b[i] = byte(r.Intn(256))
			}
			ss = append(ss, string(b))
		}
		for _, s := range ss {
			want, _ := json.Marshal(s)
			if got := appendString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
			}
		}
	})
}

// fullResult is a result whose payload and trace have every field
// filled with finite, non-zero values.
func fullResult(t *testing.T) (*sim.Result, *metrics.Payload, *decision.Trace) {
	f := &filler{t: t, r: rand.New(rand.NewSource(4)), full: true}
	var payload metrics.Payload
	var tr decision.Trace
	f.fill(reflect.ValueOf(&payload).Elem())
	f.fill(reflect.ValueOf(&tr).Elem())
	res := sampleResult()
	res.Metrics = metrics.NewArchivedSink(&payload)
	res.Decisions = decision.NewArchivedSink(&tr)
	return res, &payload, &tr
}

// floatsIn returns a pointer to every float64 reachable from v.
func floatsIn(v reflect.Value) []*float64 {
	switch v.Kind() {
	case reflect.Float64:
		return []*float64{v.Addr().Interface().(*float64)}
	case reflect.Pointer:
		if !v.IsNil() {
			return floatsIn(v.Elem())
		}
	case reflect.Struct:
		var out []*float64
		for i := range v.NumField() {
			out = append(out, floatsIn(v.Field(i))...)
		}
		return out
	case reflect.Slice:
		var out []*float64
		for i := range v.Len() {
			out = append(out, floatsIn(v.Index(i))...)
		}
		return out
	}
	return nil
}

// floatFields counts the float64 and []float64 fields of struct type T.
func floatFields[T any]() int {
	n := 0
	typ := reflect.TypeFor[T]()
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type == reflect.TypeFor[float64]() || f.Type == reflect.TypeFor[[]float64]() {
			n++
		}
	}
	return n
}

// TestEncodeResultRejectsNonFinite: a NaN or ±Inf in any float of the
// core, the metrics payload or the decision trace is an error, as it was
// under encoding/json, and nothing is written.
func TestEncodeResultRejectsNonFinite(t *testing.T) {
	res, payload, tr := fullResult(t)
	if _, err := MarshalResult(res); err != nil {
		t.Fatalf("finite result: %v", err)
	}
	j := res.Jobs[0]
	core := []*float64{&res.Makespan, &res.Utilization, &res.ProductiveUtilization, &res.PlaceTimes[0],
		&j.Spec.Arrival, &j.Spec.Work, &j.Remaining, &j.Attained, &j.FirstRun, &j.Finish}
	if want := floatFields[resultCore]() + floatFields[archivedJob](); len(core) != want {
		t.Fatalf("core float list has %d entries, the archive has %d float fields", len(core), want)
	}
	all := append(core, floatsIn(reflect.ValueOf(payload))...)
	all = append(all, floatsIn(reflect.ValueOf(tr))...)
	for i, p := range all {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			old := *p
			*p = bad
			var buf bytes.Buffer
			err := EncodeResult(&buf, res)
			data, merr := MarshalResult(res)
			*p = old
			if err == nil || !strings.Contains(err.Error(), "unsupported value") || buf.Len() != 0 {
				t.Fatalf("float %d = %v: EncodeResult err %v, wrote %d bytes", i, bad, err, buf.Len())
			}
			if merr == nil || data != nil {
				t.Fatalf("float %d = %v: MarshalResult err %v, returned %d bytes", i, bad, merr, len(data))
			}
		}
	}
}
