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

// The framed layout: a header line, the core line it frames, then the
// metrics and decisions sections the core frames. The core decoder must
// agree with the full decoder on everything but the payloads; both must
// refuse a damaged header or core, and the full decoder a damaged
// section too.

// withoutPayloads returns a shallow copy of res with its sinks dropped,
// the value UnmarshalResultCore is held to.
func withoutPayloads(res *sim.Result) *sim.Result {
	cp := *res
	cp.Metrics, cp.Decisions = nil, nil
	return &cp
}

// framedArchive encodes archivableResult (both sections present) and
// returns the archive with the byte offsets of its core's start (just
// past the header's newline), of its core's end (the core's newline) and
// of the decisions section's start.
func framedArchive(t *testing.T) (data []byte, coreAt, newline, decisionsAt int) {
	t.Helper()
	data = encoded(t, func(w io.Writer) error { return EncodeResult(w, archivableResult()) })
	coreAt = bytes.IndexByte(data, '\n') + 1
	newline = coreAt + bytes.IndexByte(data[coreAt:], '\n')
	var core resultCore
	if err := json.Unmarshal(data[coreAt:newline], &core); err != nil {
		t.Fatal(err)
	}
	if core.Metrics == nil || core.Decisions == nil {
		t.Fatal("archive lacks a section")
	}
	if want := newline + 1 + int(core.Metrics.Bytes+core.Decisions.Bytes); want != len(data) {
		t.Fatalf("archive is %d bytes, framing declares %d", len(data), want)
	}
	return data, coreAt, newline, newline + 1 + int(core.Metrics.Bytes)
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
// suffer makes the full decoder return an error. The core decoder
// rejects all of it but a section damaged in place, whose bytes it
// neither parses nor hashes.
func TestResultArchiveDamageRejected(t *testing.T) {
	data, coreAt, newline, decisionsAt := framedArchive(t)
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte { b[at] ^= 0x01; return b }
	}
	// A digit of the core swapped for another: the core still decodes,
	// to a different result.
	digit := coreAt + bytes.Index(data[coreAt:], []byte(`"rounds":`)) + len(`"rounds":`)
	if data[digit] < '0' || data[digit] > '9' {
		t.Fatalf("no digit after \"rounds\": %q", data[digit])
	}
	damage := map[string]func([]byte) []byte{
		"header-open": flip(0),
		"header-hash": flip(coreAt - 5),
		// Core bytes the strict decode would trip over: an opening and a
		// closing brace, and a letter of a field name.
		"core-open":         flip(coreAt),
		"core-close":        flip(newline - 1),
		"core-field":        flip(bytes.Index(data, []byte(`"makespan"`)) + 1),
		"core-digit-swap":   func(b []byte) []byte { b[digit] = '0' + (b[digit]-'0'+1)%10; return b },
		"core-newline":      flip(newline),
		"truncated":         func(b []byte) []byte { return b[:len(b)-1] },
		"truncated-to-core": func(b []byte) []byte { return b[:newline+1] },
		"core-only":         func(b []byte) []byte { return b[:newline] },
		"header-only":       func(b []byte) []byte { return b[:coreAt] },
		"appended":          func(b []byte) []byte { return append(b, '}') },
		"appended-newline":  func(b []byte) []byte { return append(b, '\n') },
		"doubled":           func(b []byte) []byte { return append(b, b...) },
	}
	inSections := map[string]func([]byte) []byte{
		"metrics-section":   flip((newline + decisionsAt) / 2),
		"metrics-first":     flip(newline + 1),
		"decisions-section": flip((decisionsAt + len(data)) / 2),
		"decisions-last":    flip(len(data) - 1),
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
	for name, edit := range inSections {
		t.Run(name, func(t *testing.T) {
			bad := edit(bytes.Clone(data))
			if _, err := UnmarshalResult(bad); err == nil || !strings.Contains(err.Error(), "content hash mismatch") {
				t.Errorf("full decode: err = %v, want a section hash mismatch", err)
			}
			if _, err := UnmarshalResultCore(bad); err != nil {
				t.Errorf("core decode hashed a section it does not parse: %v", err)
			}
		})
	}
}

// TestPreviousArchiveVersionsMismatch: archives of earlier codec
// revisions — a v3 result, one JSON value with its payloads embedded; a
// v4 result, a core line leading with its format tag and framing
// sections after it; a v2 snapshot, the snapshot wrapped beside its tag
// — report the version, not the fields or framing the current decoders
// do not know.
func TestPreviousArchiveVersionsMismatch(t *testing.T) {
	v3 := `{"format":"pal-result/v3","jobs":[],"measured":[],"makespan":0,"utilization":0,` +
		`"productive_utilization":0,"rounds":0,"place_times":null,` +
		`"metrics":{"name":"x","series":[]},"decisions":null,"truncated":false,"unfinished":0}` + "\n"
	v4 := `{"format":"pal-result/v4","jobs":[],"measured":[],"makespan":0,"utilization":0,` +
		`"productive_utilization":0,"rounds":0,"place_times":null,` +
		`"metrics":{"bytes":2,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},` +
		`"decisions":null,"truncated":false,"unfinished":0}` + "\n{}"
	snapV2 := `{"format":"pal-snapshot/v2","snapshot":{"rounds":3}}` + "\n"
	decoders := map[string]func([]byte) (any, error){
		"full":     func(b []byte) (any, error) { return UnmarshalResult(b) },
		"core":     func(b []byte) (any, error) { return UnmarshalResultCore(b) },
		"snapshot": func(b []byte) (any, error) { return UnmarshalSnapshot(b) },
	}
	for _, c := range []struct{ archive, decoder string }{
		{v3, "full"}, {v3, "core"}, {v4, "full"}, {v4, "core"}, {snapV2, "snapshot"},
	} {
		if _, err := decoders[c.decoder]([]byte(c.archive)); err == nil || !strings.Contains(err.Error(), "codec version mismatch") {
			t.Errorf("%s decode of %.26s: err = %v, want codec version mismatch", c.decoder, c.archive, err)
		}
	}
}

// TestResultSectionFramingRejected: a section frame must describe the
// bytes after the core exactly, and a section must decode to a value. A
// frame whose hash is wrong but whose length is right is the full
// decoder's to refuse.
func TestResultSectionFramingRejected(t *testing.T) {
	data, coreAt, newline, _ := framedArchive(t)
	var core map[string]json.RawMessage
	if err := json.Unmarshal(data[coreAt:newline], &core); err != nil {
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
		body := append(line, '\n')
		return append(append(appendHeader(nil, resultFormat, body), body...), data[newline+1:]...)
	}
	wrongHash := reframe("metrics", strings.Replace(string(core["metrics"]), `"sha256":"`, `"sha256":"0`, 1))
	for name, bad := range map[string][]byte{
		"metrics-dropped":   reframe("metrics", `null`),
		"negative-length":   reframe("metrics", `{"bytes":-1,"sha256":""}`),
		"overlong":          reframe("decisions", `{"bytes":1000000000,"sha256":""}`),
		"wrong-hash":        wrongHash,
		"unknown-frame-key": reframe("metrics", strings.Replace(string(core["metrics"]), `{`, `{"x":1,`, 1)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := UnmarshalResult(bad); err == nil {
				t.Error("full decode accepted a misframed archive")
			}
			if _, err := UnmarshalResultCore(bad); (err == nil) != (name == "wrong-hash") {
				t.Errorf("core decode: err = %v", err)
			}
		})
	}
	// A null section body matches its hash, so only the full decode can
	// refuse it.
	ref, section, err := marshalSection(json.RawMessage("null"), "metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&resultCore{Metrics: ref})
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	null := append(append(appendHeader(nil, resultFormat, body), body...), section...)
	if _, err := UnmarshalResultCore(null); err != nil {
		t.Fatalf("core decode rejected a well-framed archive: %v", err)
	}
	if _, err := UnmarshalResult(null); err == nil || !strings.Contains(err.Error(), "null value") {
		t.Errorf("err = %v, want null value", err)
	}
}
