package export

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Contracts shared by the result and snapshot codecs: one frame whose
// header tags the codec revision and hashes the body byte for byte, and
// one strict decode pass that still rejects what the format excludes.

// smallCellSpec is a fast cell with both sinks on, so its snapshot
// carries sink state as well as engine state.
const smallCellSpec = `{"name": "codec-small", "cluster": {"nodes": 2},
	"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30},
	"policy": {"name": "packed-sticky"}, "sched": {"name": "las"},
	"metrics": {"enabled": true}, "decisions": {"enabled": true}}`

// buildCell parses and builds a scenario spec.
func buildCell(tb testing.TB, src string) *scenario.Built {
	tb.Helper()
	s, err := scenario.Parse([]byte(src))
	if err != nil {
		tb.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// captureSnapshot captures smallCellSpec's run five rounds in.
func captureSnapshot(tb testing.TB) *sim.Snapshot {
	tb.Helper()
	cfg, err := buildCell(tb, smallCellSpec).Config()
	if err != nil {
		tb.Fatal(err)
	}
	snap, _, err := sim.Capture(cfg, 5)
	if err != nil {
		tb.Fatal(err)
	}
	if snap == nil {
		tb.Fatal("run completed before the capture horizon")
	}
	return snap
}

// encoded runs an encoder into a fresh buffer.
func encoded(tb testing.TB, encode func(io.Writer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// archiveCase is one codec under the shared contracts: a valid archive
// and its decoder, the latter through the io.Reader entry point every
// caller outside the store uses.
type archiveCase struct {
	name   string
	format string // the codec's format-tag prefix, without version
	data   []byte
	decode func([]byte) (any, error)
}

func archiveCases(t *testing.T) []archiveCase {
	t.Helper()
	snap := captureSnapshot(t)
	return []archiveCase{
		{
			name:   "result",
			format: "pal-result/",
			data:   encoded(t, func(w io.Writer) error { return EncodeResult(w, sampleResult()) }),
			decode: func(b []byte) (any, error) { return DecodeResult(bytes.NewReader(b)) },
		},
		{
			name:   "snapshot",
			format: "pal-snapshot/",
			data:   encoded(t, func(w io.Writer) error { return EncodeSnapshot(w, snap) }),
			decode: func(b []byte) (any, error) { return DecodeSnapshot(bytes.NewReader(b)) },
		},
	}
}

// retagged re-marshals an archive's header object after edit, so a
// tamper does not depend on the header's whitespace.
func retagged(t *testing.T, data []byte, edit func(map[string]json.RawMessage)) []byte {
	t.Helper()
	nl := bytes.IndexByte(data, '\n')
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data[:nl], &top); err != nil {
		t.Fatal(err)
	}
	edit(top)
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, data[nl:]...)
}

// reframed returns a valid archive with its body replaced by edit(body)
// and its header re-framed to match, so a tamper reaches the body's
// decoder behind a valid hash.
func reframed(tb testing.TB, archive []byte, edit func(body []byte) []byte) []byte {
	tb.Helper()
	var h header
	nl := bytes.IndexByte(archive, '\n')
	if nl < 0 || json.Unmarshal(archive[:nl], &h) != nil || h.Body == nil {
		tb.Fatal("archive has no header line")
	}
	body, rest, err := h.Body.cut(archive[nl+1:], true, "test", "body")
	if err != nil {
		tb.Fatal(err)
	}
	body = edit(bytes.Clone(body))
	return append(append(appendHeader(nil, h.Format, body), body...), rest...)
}

// TestArchiveRejectsTrailingData: anything after the archive is
// corruption (a torn concatenation, an appended fragment), not a valid
// archive with noise after it. Both archives are framed, so even
// trailing whitespace is trailing data.
func TestArchiveRejectsTrailingData(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, trailer := range []string{" \n\t\r\n", "garbage", "{}", "0", "]", `{"format":"x"}`, "\n" + string(c.data)} {
				if _, err := c.decode(append(bytes.Clone(c.data), trailer...)); err == nil {
					t.Errorf("archive followed by %.20q decoded", trailer)
				}
			}
		})
	}
}

// TestArchiveFutureFormatWithUnknownField: an archive from a newer codec
// usually also carries fields this decoder does not know; it must still
// report the version mismatch, not the unknown field.
func TestArchiveFutureFormatWithUnknownField(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			future := retagged(t, c.data, func(top map[string]json.RawMessage) {
				top["format"] = json.RawMessage(`"` + c.format + `v999"`)
				top["future_field"] = json.RawMessage(`{"x": [1, 2]}`)
			})
			if _, err := c.decode(future); err == nil ||
				!strings.Contains(err.Error(), "codec version mismatch") {
				t.Fatalf("err = %v, want codec version mismatch", err)
			}
			// The current tag with the same unknown field is plain corruption.
			unknown := retagged(t, c.data, func(top map[string]json.RawMessage) {
				top["future_field"] = json.RawMessage(`1`)
			})
			if _, err := c.decode(unknown); err == nil ||
				!strings.Contains(err.Error(), "unknown field") {
				t.Fatalf("err = %v, want unknown field", err)
			}
		})
	}
}

// TestArchiveRequiresFormat: an archive without a format tag is not an
// archive of any revision.
func TestArchiveRequiresFormat(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			untagged := retagged(t, c.data, func(top map[string]json.RawMessage) {
				delete(top, "format")
			})
			if _, err := c.decode(untagged); err == nil {
				t.Fatal("archive without a format tag decoded")
			}
		})
	}
}

// TestArchiveBodyHashedByteForByte: the body's whitespace is part of
// the archive. A body indented under its original header is refused as
// a hash mismatch; re-framed, it decodes to exactly what its compact
// twin decodes to and re-encodes to the compact bytes.
func TestArchiveBodyHashedByteForByte(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			indent := func(body []byte) []byte {
				var out bytes.Buffer
				if err := json.Indent(&out, body, "", " "); err != nil {
					t.Fatal(err)
				}
				return out.Bytes()
			}
			twinBytes := reframed(t, c.data, indent)
			// The twin's body and sections under the compact archive's header.
			unframed := append(bytes.Clone(c.data[:bytes.IndexByte(c.data, '\n')+1]),
				twinBytes[bytes.IndexByte(twinBytes, '\n')+1:]...)
			if len(twinBytes) <= len(c.data) {
				t.Fatalf("indented twin is %d bytes, compact %d: encoder is not compact", len(twinBytes), len(c.data))
			}
			if _, err := c.decode(unframed); err == nil || !strings.Contains(err.Error(), "content hash mismatch") {
				t.Fatalf("indented body under the compact header: err = %v, want a hash mismatch", err)
			}
			compact, err := c.decode(c.data)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := c.decode(twinBytes)
			if err != nil {
				t.Fatalf("re-framed indented archive rejected: %v", err)
			}
			if !reflect.DeepEqual(compact, twin) {
				t.Fatal("indented and compact archives decode differently")
			}
			var again []byte
			switch v := twin.(type) {
			case *sim.Result:
				again = encoded(t, func(w io.Writer) error { return EncodeResult(w, v) })
			case *sim.Snapshot:
				again = encoded(t, func(w io.Writer) error { return EncodeSnapshot(w, v) })
			}
			if !bytes.Equal(again, c.data) {
				t.Fatal("re-encoding the indented twin's value did not give the compact bytes")
			}
		})
	}
}
