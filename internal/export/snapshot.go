package export

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Canonical snapshot codec: the deterministic, compact JSON round-trip
// of a *sim.Snapshot the artifact store persists beside results. Same
// contract as the result codec: encoding the same snapshot twice
// produces identical bytes, every field round-trips exactly (floats use
// Go's shortest-round-trip encoding), nil and empty slices are
// preserved as written, decoding is one strict pass that rejects
// unknown fields and trailing data, and a format tag names the codec
// revision so a snapshot written by a different codec fails loudly.
// Whitespace is not part of the format.
//
// Like ResultFormatVersion, SnapshotFormatVersion is part of the
// store's on-disk layout (the snapshot sub-tree's path component) and
// NOT part of any simulation cache key: bumping it orphans persisted
// snapshots without perturbing scenario keys or their golden tests.

// SnapshotFormatVersion names the snapshot-codec revision.
// v2 dropped the util_series and events fields.
const SnapshotFormatVersion = "v2"

// snapshotFormat is the full format tag embedded in every archive.
const snapshotFormat = "pal-snapshot/" + SnapshotFormatVersion

// snapshotArchive wraps a snapshot with the codec's format tag. The
// snapshot itself is already plain, JSON-tagged data (sim.Snapshot is
// designed as an archival type), so the codec adds only versioning.
type snapshotArchive struct {
	Format   string        `json:"format"`
	Snapshot *sim.Snapshot `json:"snapshot"`
}

// EncodeSnapshot writes snap as a deterministic, versioned, compact
// JSON archive.
func EncodeSnapshot(w io.Writer, snap *sim.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("export: nil snapshot")
	}
	return encodeArchive(w, &snapshotArchive{Format: snapshotFormat, Snapshot: snap}, "snapshot")
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

// UnmarshalSnapshot decodes the archive in data, in one strict pass.
// Unknown fields, trailing data after the archive and any format
// revision other than the current one are rejected. data is not
// retained.
func UnmarshalSnapshot(data []byte) (*sim.Snapshot, error) {
	var arch snapshotArchive
	end, err := decodeArchive(data, &arch, &arch.Format, snapshotFormat, "snapshot")
	if err != nil {
		return nil, err
	}
	if !onlyWhitespace(data[end:]) {
		return nil, fmt.Errorf("export: decode snapshot archive: trailing data after the archive")
	}
	if arch.Snapshot == nil {
		return nil, fmt.Errorf("export: snapshot archive has no snapshot body")
	}
	return arch.Snapshot, nil
}
