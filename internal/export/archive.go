package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Shared body of the result and snapshot codecs. Archives are compact
// JSON: whitespace is not part of either format, so an archive written
// indented (as earlier encoders did) decodes to the same value as its
// compact twin, and `python3 -m json.tool` pretty-prints one for
// reading.

// encodeArchive writes v as one line of compact JSON. encoding/json
// emits struct fields in declaration order and floats in their
// shortest round-trip form, so equal values encode to equal bytes.
func encodeArchive(w io.Writer, v any, what string) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("export: encode %s: %w", what, err)
	}
	return nil
}

// decodeArchive decodes the single archive in data into v in one strict
// pass: unknown fields are rejected, and so is anything but whitespace
// after the archive's closing brace. *format (the tag field inside v)
// must then equal want. An archive written by a different codec
// revision reports "codec version mismatch" even when it also carries
// fields this decoder does not know: only on that error path is data
// parsed a second time, for its tag alone.
func decodeArchive(data []byte, v any, format *string, want, what string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("trailing data after the archive")
		}
	}
	got := *format
	if err != nil {
		var probe struct {
			Format string `json:"format"`
		}
		if json.Unmarshal(data, &probe) != nil || probe.Format == want {
			return fmt.Errorf("export: decode %s archive: %w", what, err)
		}
		got = probe.Format
	}
	if got != want {
		return fmt.Errorf("export: %s archive format %q, want %q (codec version mismatch)", what, got, want)
	}
	return nil
}
