package export

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// archivableResult is a result carrying a one-series metrics payload and
// a one-record decision trace, the shape ArchiveRun writes.
func archivableResult() *sim.Result {
	res := sampleResult()
	res.Metrics = metrics.NewArchivedSink(&metrics.Payload{
		Name: "run", IntervalRounds: 1, RoundSec: 300,
		Series: []metrics.SeriesData{{Name: metrics.SeriesGPUsInUse, Rounds: []int64{0}, Values: []float64{2}}},
	})
	res.Decisions = decision.NewArchivedSink(&decision.Trace{Name: "run", Records: []decision.Record{{Round: 0}}})
	return res
}

// TestArchiveRunStampsKey: ArchiveRun writes the payload, its series CSV
// and the decision trace under the base name, stamps the key on copies,
// and leaves the result's own (possibly cache-shared) values untouched.
func TestArchiveRunStampsKey(t *testing.T) {
	dir := t.TempDir()
	res := archivableResult()
	a, err := ArchiveRun(dir, "run", "0123456789abcdef", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run" + MetricsExt, "run." + metrics.SeriesGPUsInUse + ".csv", "run" + DecisionsExt} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing archive file %s: %v", name, err)
		}
	}
	if a.Payload.Key != "0123456789abcdef" || a.Trace == nil || a.Trace.Key != "0123456789abcdef" {
		t.Errorf("archived copies not key-stamped: payload %q, trace %+v", a.Payload.Key, a.Trace)
	}
	if metrics.FromResult(res).Key != "" || decision.FromResult(res).Key != "" {
		t.Error("ArchiveRun stamped the key on the result's shared payload or trace")
	}
	p, err := metrics.LoadFile(a.PayloadPath)
	if err != nil || p.Key != "0123456789abcdef" {
		t.Errorf("payload file key %v, err %v", p, err)
	}

	if _, err := ArchiveRun(dir, "bare", "k", sampleResult()); err == nil {
		t.Error("a result without a metrics payload archived without error")
	}
}

// TestNamesStayInsideOutputDir: a run or table name that is not a single
// path element — the spec name "../escaped" once wrote its archive next
// to the -metrics directory — is refused before anything is written, by
// the payload writer, the trace writer, ArchiveRun and WriteTable alike.
func TestNamesStayInsideOutputDir(t *testing.T) {
	for _, name := range []string{"../x", "a/b", "", ".", ".."} {
		root := t.TempDir()
		out := filepath.Join(root, "out")
		res := archivableResult()
		tbl := sampleTable()
		tbl.Name = name
		writers := map[string]func() error{
			"payload": func() error {
				_, err := WriteMetricsDir(out, name, metrics.FromResult(res))
				return err
			},
			"trace": func() error {
				_, err := WriteDecisionsFile(out, name, decision.FromResult(res))
				return err
			},
			"run": func() error {
				_, err := ArchiveRun(out, name, "k", res)
				return err
			},
			"table": func() error { return WriteTable(tbl, "csv", out) },
		}
		for what, write := range writers {
			err := write()
			if err == nil || !strings.Contains(err.Error(), "single path element") {
				t.Errorf("%s named %q: err %v, want a single-path-element refusal", what, name, err)
			}
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("name %q: refused writes left %d entries under the parent directory", name, len(entries))
		}
	}
}

// TestWriteTableFiles: WriteTable writes <name>.<ext> per format and
// rejects an unknown format like CheckFormat does.
func TestWriteTableFiles(t *testing.T) {
	dir := t.TempDir()
	for format, ext := range map[string]string{"text": "txt", "csv": "csv", "md": "md", "json": "json"} {
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%q): %v", format, err)
		}
		if err := WriteTable(sampleTable(), format, dir); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "t1."+ext)); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
	}
	if err := CheckFormat("xml"); err == nil {
		t.Error("CheckFormat accepted xml")
	}
	if err := WriteTable(sampleTable(), "xml", dir); err == nil {
		t.Error("WriteTable accepted xml")
	}
}

// TestUniqueNames: a name's first use is kept; later uses get the key's
// first eight characters, or an ordinal when there is no key.
func TestUniqueNames(t *testing.T) {
	var u UniqueNames
	for _, c := range []struct{ name, key, want string }{
		{"a", "0123456789", "a"},
		{"b", "", "b"},
		{"a", "abcdef0123", "a-abcdef01"},
		{"a", "k", "a-k"},
		{"b", "", "b-2"},
	} {
		if got := u.Name(c.name, c.key); got != c.want {
			t.Errorf("Name(%q, %q) = %q, want %q", c.name, c.key, got, c.want)
		}
	}
}
