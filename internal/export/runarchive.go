package export

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ArchivedRun is what ArchiveRun wrote for one run: the key-stamped
// payload and its path, and the key-stamped decision trace and its path
// when the run recorded one.
type ArchivedRun struct {
	Payload     *metrics.Payload
	PayloadPath string
	Trace       *decision.Trace // nil when the run recorded no decisions
	TracePath   string
}

// ArchiveRun archives one run into dir under the file base name base:
// its telemetry payload and series CSVs (WriteMetricsDir) and, when the
// run recorded one, its decision trace (WriteDecisionsFile), ready for
// palreport and palexplain. The cache key is stamped on copies, since
// the result's payload and trace may be shared through the result
// cache. A run without a metrics payload is an error, and so is a base
// that is not a single path element, before anything is written.
func ArchiveRun(dir, base, key string, res *sim.Result) (*ArchivedRun, error) {
	payload := metrics.FromResult(res)
	if payload == nil {
		return nil, fmt.Errorf("export: run %s produced no metrics payload", base)
	}
	p := *payload
	p.Key = key
	path, err := WriteMetricsDir(dir, base, &p)
	if err != nil {
		return nil, err
	}
	out := &ArchivedRun{Payload: &p, PayloadPath: path}
	if tr := decision.FromResult(res); tr != nil {
		t := *tr
		t.Key = key
		if out.TracePath, err = WriteDecisionsFile(dir, base, &t); err != nil {
			return nil, err
		}
		out.Trace = &t
	}
	return out, nil
}

// UniqueNames hands out file base names for runs written side by side.
// A name's first use is kept as is; each later use gets the run key's
// first eight characters appended (an ordinal when the key is empty), so
// two runs of one name never overwrite each other's files. The zero
// value is ready to use.
type UniqueNames struct {
	seen map[string]int
}

// Name returns the file base name for one run named name with key key.
func (u *UniqueNames) Name(name, key string) string {
	if u.seen == nil {
		u.seen = make(map[string]int)
	}
	u.seen[name]++
	n := u.seen[name]
	if n == 1 {
		return name
	}
	if len(key) > 8 {
		key = key[:8]
	}
	if key == "" {
		key = strconv.Itoa(n)
	}
	return name + "-" + key
}

// checkBase rejects a file base name that is not a single path element
// (empty, ".", "..", or holding a separator), which joined under an
// output directory would name a file outside it.
func checkBase(base string) error {
	if base == "" || base == "." || base == ".." ||
		strings.ContainsRune(base, '/') || strings.ContainsRune(base, filepath.Separator) {
		return fmt.Errorf("export: name %q is not a single path element; refusing to write outside the output directory", base)
	}
	return nil
}

// writeFile creates path and renders into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("export: %s: %w", path, err)
	}
	return f.Close()
}
