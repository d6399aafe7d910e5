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

// Contracts shared by the result and snapshot codecs: one strict decode
// pass that still rejects what the format excludes, and whitespace that
// is not part of the format.

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
	// framed: the archive's length is part of its format (a result's
	// sections are byte-counted), so even trailing whitespace is
	// trailing data.
	framed bool
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
			framed: true,
		},
		{
			name:   "snapshot",
			format: "pal-snapshot/",
			data:   encoded(t, func(w io.Writer) error { return EncodeSnapshot(w, snap) }),
			decode: func(b []byte) (any, error) { return DecodeSnapshot(bytes.NewReader(b)) },
		},
	}
}

// retagged re-marshals an archive's top-level object after edit, so a
// tamper does not depend on the archive's whitespace.
func retagged(t *testing.T, data []byte, edit func(map[string]json.RawMessage)) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	edit(top)
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestArchiveRejectsTrailingData: anything after the archive is
// corruption (a torn concatenation, an appended fragment), not a valid
// archive with noise after it. Only an unframed archive may end in
// whitespace.
func TestArchiveRejectsTrailingData(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.decode(append(bytes.Clone(c.data), " \n\t\r\n"...))
			if !c.framed && err != nil {
				t.Fatalf("trailing whitespace rejected: %v", err)
			}
			if c.framed && err == nil {
				t.Fatal("trailing whitespace after a framed archive decoded")
			}
			for _, trailer := range []string{"garbage", "{}", "0", "]", `{"format":"x"}`, "\n" + string(c.data)} {
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

// TestArchiveIndentedTwinDecodes: whitespace is not part of either
// format, so an archive indented the way earlier encoders wrote it
// decodes to exactly what its compact twin decodes to, and re-encodes
// to the compact bytes. This is why compact encoding needs no format
// version bump.
func TestArchiveIndentedTwinDecodes(t *testing.T) {
	for _, c := range archiveCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var indented bytes.Buffer
			if err := json.Indent(&indented, c.data, "", " "); err != nil {
				t.Fatal(err)
			}
			if len(indented.Bytes()) <= len(c.data) {
				t.Fatalf("indented twin is %d bytes, compact %d: encoder is not compact", indented.Len(), len(c.data))
			}
			compact, err := c.decode(c.data)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := c.decode(indented.Bytes())
			if err != nil {
				t.Fatalf("indented archive rejected: %v", err)
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
