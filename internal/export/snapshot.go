package export

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Canonical snapshot codec: the deterministic, compact JSON round-trip
// of a *sim.Snapshot the artifact store persists beside results. Same
// contract as the result codec: encoding the same snapshot twice
// produces identical bytes, every field round-trips exactly (floats use
// Go's shortest-round-trip encoding), nil and empty slices are
// preserved as written, and decoding is one strict pass that rejects
// unknown fields and trailing data. The archive is the shared frame
// (archive.go): a header whose format tag names the codec revision, so
// a snapshot written by a different codec fails loudly, and whose hash
// covers the body, the snapshot's JSON, byte for byte.
//
// Like ResultFormatVersion, SnapshotFormatVersion is part of the
// store's on-disk layout (the snapshot sub-tree's path component) and
// NOT part of any simulation cache key: bumping it orphans persisted
// snapshots without perturbing scenario keys or their golden tests.

// SnapshotFormatVersion names the snapshot-codec revision.
// v2 dropped the util_series and events fields; v3 moved the format tag
// into a header line that frames the snapshot with its hash.
const SnapshotFormatVersion = "v3"

// snapshotFormat is the full format tag in every archive's header.
const snapshotFormat = "pal-snapshot/" + SnapshotFormatVersion

// EncodeSnapshot writes snap as a deterministic, versioned archive: the
// header, then the snapshot as one line of compact JSON. sim.Snapshot is
// plain, JSON-tagged data designed as an archival type, so
// encoding/json writes the body; it emits struct fields in declaration
// order and floats in their shortest round-trip form, so equal values
// encode to equal bytes.
func EncodeSnapshot(w io.Writer, snap *sim.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("export: nil snapshot")
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("export: encode snapshot: %w", err)
	}
	body = append(body, '\n')
	if _, err := w.Write(append(appendHeader(nil, snapshotFormat, body), body...)); err != nil {
		return fmt.Errorf("export: encode snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads an archive written by EncodeSnapshot; see
// UnmarshalSnapshot for what it rejects.
func DecodeSnapshot(r io.Reader) (*sim.Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("export: read snapshot archive: %w", err)
	}
	return UnmarshalSnapshot(data)
}

// UnmarshalSnapshot checks the archive's header and the body's hash,
// then decodes the body in one strict pass. Unknown fields, a null
// snapshot, data after the body and any format revision other than the
// current one are rejected. data is not retained.
func UnmarshalSnapshot(data []byte) (*sim.Snapshot, error) {
	body, rest, err := cutFrame(data, snapshotFormat, "snapshot")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("export: snapshot archive: %d bytes of trailing data after the body", len(rest))
	}
	snap, err := decodeJSON[sim.Snapshot](body)
	if err != nil {
		return nil, fmt.Errorf("export: decode snapshot archive: %w", err)
	}
	return snap, nil
}
