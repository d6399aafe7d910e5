package export

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/decision"
)

// DecisionsExt is the filename suffix of archived decision traces;
// palexplain and palreport discover traces in a directory by it.
const DecisionsExt = ".decisions.json"

// WriteDecisionsFile archives one run's decision trace into dir as
// <base>.decisions.json (the format decision.Load reads back). It
// creates dir as needed and returns the trace path. A base that is not
// a single path element is an error before anything is written.
func WriteDecisionsFile(dir, base string, t *decision.Trace) (string, error) {
	if err := checkBase(base); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	path := filepath.Join(dir, base+DecisionsExt)
	return path, writeFile(path, func(w io.Writer) error { return t.Save(w) })
}
