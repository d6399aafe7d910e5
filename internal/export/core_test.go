package export

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The framed v4 layout: a core line, then the hash-framed metrics and
// decisions sections. The core decoder must agree with the full decoder
// on everything but the payloads, and both must refuse damaged bytes.

// withoutPayloads returns a shallow copy of res with its sinks dropped,
// the value UnmarshalResultCore is held to.
func withoutPayloads(res *sim.Result) *sim.Result {
	cp := *res
	cp.Metrics, cp.Decisions = nil, nil
	return &cp
}

// framedArchive encodes archivableResult (both sections present) and
// returns the archive with the byte offsets of its core's end (the
// newline) and of the decisions section's start.
func framedArchive(t *testing.T) (data []byte, newline, decisionsAt int) {
	t.Helper()
	data = encoded(t, func(w io.Writer) error { return EncodeResult(w, archivableResult()) })
	newline = bytes.IndexByte(data, '\n')
	var core resultCore
	if err := json.Unmarshal(data[:newline], &core); err != nil {
		t.Fatal(err)
	}
	if core.Metrics == nil || core.Decisions == nil {
		t.Fatal("archive lacks a section")
	}
	if want := newline + 1 + int(core.Metrics.Bytes+core.Decisions.Bytes); want != len(data) {
		t.Fatalf("archive is %d bytes, framing declares %d", len(data), want)
	}
	return data, newline, newline + 1 + int(core.Metrics.Bytes)
}

// TestResultCoreMatchesFull: the core decoder returns exactly what the
// full decoder returns, minus the payloads, with and without sections.
func TestResultCoreMatchesFull(t *testing.T) {
	for name, res := range map[string]*sim.Result{
		"no-sections":   sampleResult(),
		"both-sections": archivableResult(),
	} {
		t.Run(name, func(t *testing.T) {
			data := encoded(t, func(w io.Writer) error { return EncodeResult(w, res) })
			full, err := UnmarshalResult(data)
			if err != nil {
				t.Fatal(err)
			}
			core, err := UnmarshalResultCore(data)
			if err != nil {
				t.Fatal(err)
			}
			if core.Metrics != nil || core.Decisions != nil {
				t.Fatal("core decode carries a payload")
			}
			if !reflect.DeepEqual(core, withoutPayloads(full)) {
				t.Fatal("core decode differs from the full decode")
			}
			if core.Measured[0] != core.Jobs[0] {
				t.Error("Measured[0] does not alias Jobs[0] after a core decode")
			}
		})
	}
}

// TestResultArchiveDamageRejected: every damage a stored object can
// suffer makes both decoders return an error.
func TestResultArchiveDamageRejected(t *testing.T) {
	data, newline, decisionsAt := framedArchive(t)
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte { b[at] ^= 0x01; return b }
	}
	damage := map[string]func([]byte) []byte{
		// Core bytes the strict decode must trip over: an opening and a
		// closing brace, and a letter of a field name.
		"core-open":         flip(0),
		"core-close":        flip(newline - 1),
		"core-field":        flip(bytes.Index(data, []byte(`"makespan"`)) + 1),
		"core-newline":      flip(newline),
		"metrics-section":   flip((newline + decisionsAt) / 2),
		"metrics-first":     flip(newline + 1),
		"decisions-section": flip((decisionsAt + len(data)) / 2),
		"decisions-last":    flip(len(data) - 1),
		"truncated":         func(b []byte) []byte { return b[:len(b)-1] },
		"truncated-to-core": func(b []byte) []byte { return b[:newline+1] },
		"core-only":         func(b []byte) []byte { return b[:newline] },
		"appended":          func(b []byte) []byte { return append(b, '}') },
		"appended-newline":  func(b []byte) []byte { return append(b, '\n') },
		"doubled":           func(b []byte) []byte { return append(b, b...) },
	}
	for name, edit := range damage {
		t.Run(name, func(t *testing.T) {
			bad := edit(bytes.Clone(data))
			if _, err := UnmarshalResult(bad); err == nil {
				t.Error("full decode accepted a damaged archive")
			}
			if _, err := UnmarshalResultCore(bad); err == nil {
				t.Error("core decode accepted a damaged archive")
			}
		})
	}
}

// TestResultV3ArchiveVersionMismatch: a v3 archive — one JSON value
// with its payloads embedded — reports the version, not the fields or
// framing the v4 decoders do not know.
func TestResultV3ArchiveVersionMismatch(t *testing.T) {
	v3 := `{"format":"pal-result/v3","jobs":[],"measured":[],"makespan":0,"utilization":0,` +
		`"productive_utilization":0,"rounds":0,"place_times":null,` +
		`"metrics":{"name":"x","series":[]},"decisions":null,"truncated":false,"unfinished":0}` + "\n"
	for name, decode := range map[string]func([]byte) (*sim.Result, error){
		"full": UnmarshalResult, "core": UnmarshalResultCore,
	} {
		if _, err := decode([]byte(v3)); err == nil || !strings.Contains(err.Error(), "codec version mismatch") {
			t.Errorf("%s: err = %v, want codec version mismatch", name, err)
		}
	}
}

// TestResultSectionFramingRejected: a section frame must describe the
// bytes after the core exactly, and a section must decode to a value.
func TestResultSectionFramingRejected(t *testing.T) {
	data, newline, _ := framedArchive(t)
	var core map[string]json.RawMessage
	if err := json.Unmarshal(data[:newline], &core); err != nil {
		t.Fatal(err)
	}
	reframe := func(field, frame string) []byte {
		edited := map[string]json.RawMessage{}
		for k, v := range core {
			edited[k] = v
		}
		edited[field] = json.RawMessage(frame)
		line, err := json.Marshal(edited)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(line, '\n'), data[newline+1:]...)
	}
	for name, bad := range map[string][]byte{
		"metrics-dropped":   reframe("metrics", `null`),
		"negative-length":   reframe("metrics", `{"bytes":-1,"sha256":""}`),
		"overlong":          reframe("decisions", `{"bytes":1000000000,"sha256":""}`),
		"wrong-hash":        reframe("metrics", strings.Replace(string(core["metrics"]), `"sha256":"`, `"sha256":"0`, 1)),
		"unknown-frame-key": reframe("metrics", strings.Replace(string(core["metrics"]), `{`, `{"x":1,`, 1)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := UnmarshalResult(bad); err == nil {
				t.Error("full decode accepted a misframed archive")
			}
			if _, err := UnmarshalResultCore(bad); err == nil {
				t.Error("core decode accepted a misframed archive")
			}
		})
	}
	// A null section body matches its hash, so only the full decode can
	// refuse it.
	ref, body, err := marshalSection(json.RawMessage("null"), "metrics")
	if err != nil {
		t.Fatal(err)
	}
	null := append(encoded(t, func(w io.Writer) error {
		return encodeArchive(w, &resultCore{Format: resultFormat, Metrics: ref}, "result")
	}), body...)
	if _, err := UnmarshalResultCore(null); err != nil {
		t.Fatalf("core decode rejected a well-framed archive: %v", err)
	}
	if _, err := UnmarshalResult(null); err == nil || !strings.Contains(err.Error(), "null section") {
		t.Errorf("err = %v, want null section", err)
	}
}
