package export

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// Decoder fuzz targets. An archive comes from disk, so its decoder may
// only return an error, never panic; and whatever it accepts must be a
// value the encoder writes back, decoding again to the same value and
// re-encoding to the same bytes. Each body is hashed byte for byte, so
// a fuzzed body byte would almost never get past its frame: each target
// checks the fuzzed archive as it is and again with its header re-framed
// over the body it carries (refreshed), so that mutations of the core
// and of the snapshot reach their decoders. FuzzDecodeResult also runs
// the decoders differentially:
//
//   - whatever UnmarshalResult accepts, the encoding/json reference
//     decoder (referenceUnmarshalResult) accepts, to a deep-equal result;
//   - whatever the reference accepts re-encodes to an archive that
//     UnmarshalResult accepts, compact and with its core indented and
//     re-framed;
//   - the core decoder accepts whatever the full decoder accepts,
//     returning the same result without payloads;
//   - the re-encoding equals the encoding/json reference encoder's bytes.
//
// Run one with
//
//	go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 10s ./internal/export

func FuzzDecodeResult(f *testing.F) {
	f.Add(encoded(f, func(w io.Writer) error { return EncodeResult(w, sampleResult()) }))
	f.Add(encoded(f, func(w io.Writer) error { return EncodeResult(w, archivableResult()) }))
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResultDecoders(t, data)
		checkResultDecoders(t, refreshed(data, resultFormat, true))
	})
}

// checkResultDecoders holds the result decoders, given one archive, to
// the contract FuzzDecodeResult states.
func checkResultDecoders(t *testing.T, data []byte) {
	t.Helper()
	core, coreErr := UnmarshalResultCore(data)
	res, err := UnmarshalResult(data)
	ref, refErr := referenceUnmarshalResult(data)
	if err == nil && refErr != nil {
		t.Fatalf("decoder accepted an archive the encoding/json reference rejects: %v", refErr)
	}
	if err == nil && !reflect.DeepEqual(res, ref) {
		t.Fatal("decoder and encoding/json reference decode differently")
	}
	if refErr == nil {
		again := encoded(t, func(w io.Writer) error { return EncodeResult(w, ref) })
		for _, twin := range [][]byte{again, indentCore(t, again)} {
			if got, err := UnmarshalResult(twin); err != nil {
				t.Fatalf("decoder rejected a re-encoded archive: %v\n%s", err, twin)
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("re-encoded archive decodes differently:\n%s", twin)
			}
		}
	}
	if err != nil {
		return
	}
	if coreErr != nil {
		t.Fatalf("core decode rejected an archive the full decode accepts: %v", coreErr)
	}
	if !reflect.DeepEqual(core, withoutPayloads(res)) {
		t.Fatal("core decode differs from the full decode without payloads")
	}
	checkFixedPoint(t, res, EncodeResult, UnmarshalResult)
	got := encoded(t, func(w io.Writer) error { return EncodeResult(w, res) })
	if want := encoded(t, func(w io.Writer) error { return referenceEncodeResult(w, res) }); !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult differs from the encoding/json reference:\n%s\n%s", got, want)
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	snap := captureSnapshot(f)
	f.Add(encoded(f, func(w io.Writer) error { return EncodeSnapshot(w, snap) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, archive := range [][]byte{data, refreshed(data, snapshotFormat, false)} {
			if snap, err := UnmarshalSnapshot(archive); err == nil {
				checkFixedPoint(t, snap, EncodeSnapshot, UnmarshalSnapshot)
			}
		}
	})
}

// refreshed returns data with its first line replaced by a header that
// frames, under format, what follows that line: the next line only when
// oneLine is set (a result's core, which its sections follow), else all
// of it (a snapshot's body). Data without a newline comes back as it is.
func refreshed(data []byte, format string, oneLine bool) []byte {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return data
	}
	rest := data[nl+1:]
	body := rest
	if end := bytes.IndexByte(rest, '\n'); oneLine && end >= 0 {
		body = rest[:end+1]
	}
	return append(appendHeader(nil, format, body), rest...)
}

// checkFixedPoint requires a decoded value v to re-encode, decode back
// to a deep-equal value, and re-encode to the same bytes.
func checkFixedPoint[T any](t *testing.T, v T, encode func(io.Writer, T) error, decode func([]byte) (T, error)) {
	t.Helper()
	first := encoded(t, func(w io.Writer) error { return encode(w, v) })
	again, err := decode(first)
	if err != nil {
		t.Fatalf("re-encoded archive does not decode: %v\n%s", err, first)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("decode(encode(v)) differs from v:\n%s", first)
	}
	if second := encoded(t, func(w io.Writer) error { return encode(w, again) }); !bytes.Equal(first, second) {
		t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", first, second)
	}
}
