package export

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Shared frame of the result and snapshot codecs. An archive leads with
// one header line, a compact JSON object carrying the codec's format tag
// and the byte length and SHA-256 of the body after it:
//
//	{"format":"pal-result/v5","body":{"bytes":N,"sha256":"<hex>"}}\n<body>
//
// The body is one JSON value ending in a newline: a result archive's
// core (which frames the payload sections that follow it in turn) or a
// snapshot. The body is hashed byte for byte, so every decoder checks
// what it parses before it parses it; whitespace inside the header is
// not part of the format. `sed -n 2p <file> | python3 -m json.tool`
// pretty-prints either body for reading.

// frame is the length and hex SHA-256 of one hashed span of an archive:
// the body a header frames, or a payload section a result core frames.
type frame struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// newFrame frames b.
func newFrame(b []byte) *frame {
	sum := sha256.Sum256(b)
	return &frame{Bytes: int64(len(b)), SHA256: hex.EncodeToString(sum[:])}
}

// cut splits the span f frames off the front of rest, checking its
// length and, when hash is set, its content hash.
func (f *frame) cut(rest []byte, hash bool, what, span string) (data, after []byte, err error) {
	if f.Bytes < 0 || f.Bytes > int64(len(rest)) {
		return nil, nil, fmt.Errorf("export: %s archive: %s declares %d bytes, %d remain (truncated archive?)", what, span, f.Bytes, len(rest))
	}
	data, after = rest[:f.Bytes], rest[f.Bytes:]
	if hash {
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != f.SHA256 {
			return nil, nil, fmt.Errorf("export: %s archive: %s content hash mismatch", what, span)
		}
	}
	return data, after, nil
}

// header is an archive's leading line.
type header struct {
	Format string `json:"format"`
	Body   *frame `json:"body"`
}

var headerFields = []field[header]{
	{"format", func(d *coreDecoder, h *header) { h.Format = string(d.text()) }},
	{"body", func(d *coreDecoder, h *header) { h.Body = d.frame() }},
}

// appendHeader appends the header line that tags body with format and
// frames it.
func appendHeader(b []byte, format string, body []byte) []byte {
	e := jsonBuf{b: b}
	e.header(&header{Format: format, Body: newFrame(body)})
	return append(e.b, '\n')
}

// cutFrame checks the header at the front of data — its format tag
// against want, then the body's length and hash — and returns the body
// and what follows it. An archive of another codec revision reports
// "codec version mismatch".
func cutFrame(data []byte, want, what string) (body, rest []byte, err error) {
	d := coreDecoder{b: data}
	var h header
	if !object(&d, &h, headerFields) {
		d.fail(errors.New("null header"))
	}
	if d.err == nil && (d.i >= len(data) || data[d.i] != '\n') {
		d.fail(errors.New("header not followed by a newline"))
	}
	if err := checkFormat(data, d.err, h.Format, want, what); err != nil {
		return nil, nil, err
	}
	if h.Body == nil {
		return nil, nil, fmt.Errorf("export: %s archive: header frames no body", what)
	}
	return h.Body.cut(data[d.i+1:], true, what, "body")
}

// checkFormat turns the outcome of decoding an archive's header into the
// decoder's error: err, or a format tag got other than want. An archive
// written by a different codec revision reports "codec version mismatch"
// even when its first value carries fields this decoder does not know —
// every archive before this frame led with its format tag inside one —
// and only on that error path is the first value parsed a second time,
// for its tag alone.
func checkFormat(data []byte, err error, got, want, what string) error {
	if err != nil {
		var probe struct {
			Format string `json:"format"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) != nil || probe.Format == want {
			return fmt.Errorf("export: decode %s archive: %w", what, err)
		}
		got = probe.Format
	}
	if got != want {
		return fmt.Errorf("export: %s archive format %q, want %q (codec version mismatch)", what, got, want)
	}
	return nil
}

// decodeJSON strictly decodes the one JSON value in data into a new T:
// unknown fields, trailing data and null are rejected.
func decodeJSON[T any](data []byte) (*T, error) {
	var v *T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	if err == nil && !onlyWhitespace(data[dec.InputOffset():]) {
		err = errors.New("trailing data after the value")
	}
	if err == nil && v == nil {
		err = errors.New("null value")
	}
	return v, err
}

// onlyWhitespace reports whether b holds nothing but JSON whitespace.
func onlyWhitespace(b []byte) bool {
	return len(bytes.TrimLeft(b, " \t\r\n")) == 0
}
