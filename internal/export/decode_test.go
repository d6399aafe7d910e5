package export

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// referenceUnmarshalResult decodes an archive as UnmarshalResult does,
// but with encoding/json decoding the core into resultCore: the
// definition the hand-written core decoder (decode.go) is held to.
func referenceUnmarshalResult(data []byte) (*sim.Result, error) {
	var arch resultCore
	end, err := decodeArchive(data, &arch, &arch.Format, resultFormat, "result")
	if err != nil {
		return nil, err
	}
	res, err := referenceResult(&arch)
	if err != nil {
		return nil, err
	}
	metricsData, decisionsData, err := cutSections(data[end:], arch.Metrics, arch.Decisions)
	if err != nil {
		return nil, err
	}
	if err := attachPayloads(res, metricsData, decisionsData); err != nil {
		return nil, err
	}
	return res, nil
}

// referenceResult rebuilds the payload-free *sim.Result an archive core
// describes.
func referenceResult(arch *resultCore) (*sim.Result, error) {
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
	var err error
	res.Measured, err = measuredJobs(res.Jobs, arch.Measured)
	return res, err
}

// indentCore returns archive with its core line indented and its
// sections as they were.
func indentCore(tb testing.TB, archive []byte) []byte {
	tb.Helper()
	nl := bytes.IndexByte(archive, '\n')
	if nl < 0 {
		tb.Fatal("archive has no core line")
	}
	var out bytes.Buffer
	if err := json.Indent(&out, archive[:nl], "", "\t"); err != nil {
		tb.Fatal(err)
	}
	return append(out.Bytes(), archive[nl:]...)
}

// coreVariant is sampleResult's archive with edits to its core: each
// pair of olds names a string and its replacement.
func coreVariant(tb testing.TB, olds ...string) []byte {
	tb.Helper()
	data := encoded(tb, func(w io.Writer) error { return EncodeResult(w, sampleResult()) })
	for i := 0; i < len(olds); i += 2 {
		if !bytes.Contains(data, []byte(olds[i])) {
			tb.Fatalf("archive lacks %q", olds[i])
		}
		data = bytes.Replace(data, []byte(olds[i]), []byte(olds[i+1]), 1)
	}
	return data
}

// decoderSeeds are archives at the edges of the core grammar: what the
// hand-written decoder must read exactly as encoding/json does, and
// what it must refuse. FuzzDecodeResult starts from them too.
func decoderSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	v3 := `{"format":"pal-result/v3","jobs":[],"measured":[],"makespan":0,"utilization":0,` +
		`"productive_utilization":0,"rounds":0,"place_times":null,"unknown":{"x":[1]},` +
		`"metrics":{"name":"x","series":[]},"decisions":null,"truncated":false,"unfinished":0}` + "\n"
	full := encoded(tb, func(w io.Writer) error { return EncodeResult(w, sampleResult()) })
	cut := bytes.Index(full, []byte(`"makespan":660.5`)) + len(`"makespan":66`)
	return map[string][]byte{
		"escaped-model":   coreVariant(tb, `"model":"resnet50"`, `"model":"res\u006eet\/50\u00e9"`),
		"escaped-key":     coreVariant(tb, `"rounds":`, `"r\u006funds":`),
		"utf8-model":      coreVariant(tb, `"model":"gpt2"`, `"model":"gpt2-café"`),
		"bad-utf8-model":  coreVariant(tb, `"model":"gpt2"`, "\"model\":\"gpt\xff2\""),
		"control-model":   coreVariant(tb, `"model":"gpt2"`, "\"model\":\"gpt\x012\""),
		"v3-unknown":      []byte(v3),
		"minus-zero":      coreVariant(tb, `"makespan":660.5`, `"makespan":-0`),
		"minus-zero-int":  coreVariant(tb, `"rounds":5`, `"rounds":-0`),
		"small-exponent":  coreVariant(tb, `"utilization":0.3341`, `"utilization":1e-7`),
		"upper-exponent":  coreVariant(tb, `"utilization":0.3341`, `"utilization":12.5E+2`),
		"float-range":     coreVariant(tb, `"utilization":0.3341`, `"utilization":1e400`),
		"int-exponent":    coreVariant(tb, `"rounds":5`, `"rounds":5e0`),
		"int-fraction":    coreVariant(tb, `"rounds":5`, `"rounds":5.0`),
		"int-range":       coreVariant(tb, `"rounds":5`, `"rounds":9223372036854775808`),
		"leading-zero":    coreVariant(tb, `"rounds":5`, `"rounds":05`),
		"bare-minus":      coreVariant(tb, `"rounds":5`, `"rounds":-`),
		"bare-point":      coreVariant(tb, `"makespan":660.5`, `"makespan":660.`),
		"bare-exponent":   coreVariant(tb, `"makespan":660.5`, `"makespan":6e`),
		"null-fields":     coreVariant(tb, `"makespan":660.5,"utilization":0.3341`, `"makespan":null,"utilization":null`),
		"null-strings":    coreVariant(tb, `"model":"resnet50"`, `"model":null`),
		"null-bools":      coreVariant(tb, `"truncated":true`, `"truncated":null`),
		"null-job":        coreVariant(tb, `"jobs":[`, `"jobs":[null,`),
		"empty-job":       coreVariant(tb, `"jobs":[`, `"jobs":[{},`),
		"empty-alloc":     coreVariant(tb, `"alloc":[3]`, `"alloc":[]`),
		"null-in-alloc":   coreVariant(tb, `"alloc":[3]`, `"alloc":[null,3]`),
		"fields-reorder":  coreVariant(tb, `,"unfinished":2}`, `}`, `{"format"`, `{"unfinished":2,"format"`),
		"missing-fields":  []byte(`{"format":"pal-result/v4","jobs":[{"id":4}],"measured":[0]}` + "\n"),
		"spaced":          coreVariant(tb, `"rounds":5,`, " \"rounds\" \t:\r\n 5 ,\n"),
		"repeated-key":    coreVariant(tb, `"rounds":5`, `"rounds":5,"rounds":6`),
		"repeated-null":   coreVariant(tb, `"rounds":5`, `"rounds":5,"rounds":null`),
		"repeated-job":    coreVariant(tb, `"jobs":[`, `"jobs":[{"id":9,"model":"x"}],"jobs":[`),
		"folded-key":      coreVariant(tb, `"rounds":5`, `"Rounds":5`),
		"type-mismatch":   coreVariant(tb, `"rounds":5`, `"rounds":"5"`),
		"bool-mismatch":   coreVariant(tb, `"truncated":true`, `"truncated":1`),
		"trailing-comma":  coreVariant(tb, `"unfinished":2}`, `"unfinished":2,}`),
		"missing-comma":   coreVariant(tb, `"rounds":5,`, `"rounds":5 `),
		"bad-literal":     coreVariant(tb, `"truncated":true`, `"truncated":tru`),
		"section-unknown": coreVariant(tb, `"metrics":null`, `"metrics":{"bytes":0,"sha256":"x","y":1}`),
		"top-null":        []byte("null\n"),
		"top-array":       []byte("[]\n"),
		"empty":           nil,
		"cut-mid-number":  full[:cut],
		"cut-mid-string":  full[:bytes.Index(full, []byte(`"gpt2"`))+3],
		"cut-mid-object":  full[:bytes.Index(full, []byte(`"measured"`))],
	}
}

// TestCoreDecoderMatchesReference: on every seed, the hand-written core
// decoder accepts only what the encoding/json reference accepts, to a
// deep-equal result. Where the reference accepts and the decoder does
// not, the input is one no encoder writes: a repeated or case-folded
// key.
func TestCoreDecoderMatchesReference(t *testing.T) {
	stricter := map[string]bool{"repeated-key": true, "repeated-null": true, "repeated-job": true, "folded-key": true}
	accepted := map[string]bool{
		"escaped-model": true, "escaped-key": true, "utf8-model": true, "bad-utf8-model": true,
		"minus-zero": true, "minus-zero-int": true, "small-exponent": true, "upper-exponent": true,
		"null-fields": true, "null-strings": true, "null-bools": true, "null-job": true,
		"empty-job": true, "empty-alloc": true, "null-in-alloc": true, "fields-reorder": true,
		"missing-fields": true, "spaced": true,
	}
	for name, data := range decoderSeeds(t) {
		t.Run(name, func(t *testing.T) {
			got, err := UnmarshalResult(data)
			want, refErr := referenceUnmarshalResult(data)
			switch {
			case accepted[name] && (err != nil || refErr != nil):
				t.Fatalf("seed rejected: %v, reference %v", err, refErr)
			case stricter[name] && (err == nil || refErr != nil):
				t.Fatalf("want the decoder alone to reject it: %v, reference %v", err, refErr)
			case err == nil && refErr != nil:
				t.Fatalf("decoder accepted what the reference rejects: %v", refErr)
			case err != nil && refErr == nil && !stricter[name]:
				t.Fatalf("decoder rejected what the reference accepts: %v", err)
			case err == nil && !reflect.DeepEqual(got, want):
				t.Fatalf("decoder and reference differ:\n%+v\n%+v", got, want)
			case err != nil && refErr != nil && strings.Contains(refErr.Error(), "codec version mismatch") != strings.Contains(err.Error(), "codec version mismatch"):
				t.Fatalf("errors disagree on the version: %v, reference %v", err, refErr)
			}
		})
	}
}

// TestCoreDecoderSharesModelNames: jobs naming the same model share one
// string, and a decoded result does not alias the archive's bytes.
func TestCoreDecoderSharesModelNames(t *testing.T) {
	res := sampleResult()
	res.Jobs[2].Spec.Model = res.Jobs[0].Spec.Model
	data := encoded(t, func(w io.Writer) error { return EncodeResult(w, res) })
	got, err := UnmarshalResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(got.Jobs[0].Spec.Model) != unsafe.StringData(got.Jobs[2].Spec.Model) {
		t.Error("jobs naming one model hold two strings")
	}
	clear(data)
	if got.Jobs[0].Spec.Model != "resnet50" || got.Jobs[1].Spec.Model != "gpt2" {
		t.Errorf("decoded models alias the archive: %q, %q", got.Jobs[0].Spec.Model, got.Jobs[1].Spec.Model)
	}
}
