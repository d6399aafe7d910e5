package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Shared body of the result and snapshot codecs. Archives lead with one
// compact JSON value carrying a format tag; whitespace inside it is not
// part of either format, so `python3 -m json.tool` pretty-prints a
// snapshot archive (or a result archive's first line) for reading, and
// an indented value decodes unchanged.

// encodeArchive writes v as one line of compact JSON. encoding/json
// emits struct fields in declaration order and floats in their
// shortest round-trip form, so equal values encode to equal bytes. It
// writes snapshot archives only: result archives go through the
// hand-written appenders (append.go), which write the bytes it would.
func encodeArchive(w io.Writer, v any, what string) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("export: encode %s: %w", what, err)
	}
	return nil
}

// decodeArchive decodes the first JSON value in data into v in one
// strict pass (unknown fields are rejected) and returns the offset just
// past it; what follows is the caller's to frame. *format (the tag
// field inside v) must then equal want. An archive written by a
// different codec revision reports "codec version mismatch" even when
// it also carries fields this decoder does not know: only on that error
// path is the first value parsed a second time, for its tag alone.
func decodeArchive(data []byte, v any, format *string, want, what string) (int64, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	got := *format
	if err != nil {
		var probe struct {
			Format string `json:"format"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) != nil || probe.Format == want {
			return 0, fmt.Errorf("export: decode %s archive: %w", what, err)
		}
		got = probe.Format
	}
	if got != want {
		return 0, fmt.Errorf("export: %s archive format %q, want %q (codec version mismatch)", what, got, want)
	}
	return dec.InputOffset(), nil
}

// onlyWhitespace reports whether b holds nothing but JSON whitespace.
func onlyWhitespace(b []byte) bool {
	return len(bytes.TrimLeft(b, " \t\r\n")) == 0
}
