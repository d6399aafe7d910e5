package cli

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/store"
)

// readerSpec is a tiny synthetic scenario; the test varies its name and
// recording blocks to get three results with different payloads.
const readerSpec = `{
  "name": %q,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"}%s
}`

// TestReadArchivesStore: one ReadArchives call over a store holding a
// result with metrics and decisions, one with metrics only and a bare
// one returns every store key, the two payloads and the one trace —
// each stamped with its key — and counts the results it skipped.
// Followed by a payload file, the store keeps token order.
func TestReadArchivesStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	keyOf := map[string]string{}
	for name, blocks := range map[string]string{
		"both":    `, "metrics": {"enabled": true}, "decisions": {"enabled": true}`,
		"metrics": `, "metrics": {"enabled": true}`,
		"bare":    ``,
	} {
		spec, err := scenario.Parse([]byte(fmt.Sprintf(readerSpec, name, blocks)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(b.Key(), res); err != nil {
			t.Fatal(err)
		}
		keyOf[name] = b.Key()
		if name == "metrics" {
			// The same run archived as a file, read after the store.
			if _, err := export.ArchiveRun(filepath.Join(dir, "files"), "file-run", b.Key(), res); err != nil {
				t.Fatal(err)
			}
		}
	}

	arch, err := ReadArchives(st.Root()+","+filepath.Join(dir, "files"), Want{Payloads: true, Traces: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Keys) != 3 {
		t.Errorf("store keys %v, want all three results", arch.Keys)
	}
	for name, key := range keyOf {
		if !arch.Keys[key] {
			t.Errorf("store key of %s missing", name)
		}
	}

	// The store's two payloads come first (in key order), then the file
	// token's copy of the metrics-only run; all carry their run's key.
	var names []string
	for _, p := range arch.Payloads {
		names = append(names, p.Name)
		if p.Key != keyOf[p.Name] {
			t.Errorf("payload %s carries key %q, want %q", p.Name, p.Key, keyOf[p.Name])
		}
	}
	if len(names) != 3 || names[2] != "metrics" {
		t.Fatalf("payloads %v, want both and metrics from the store, then the file's metrics", names)
	}
	fromStore := names[:2]
	sort.Strings(fromStore)
	if fromStore[0] != "both" || fromStore[1] != "metrics" {
		t.Errorf("store payloads %v, want both and metrics", fromStore)
	}
	if len(arch.Traces) != 1 || arch.Traces[0].Name != "both" || arch.Traces[0].Key != keyOf["both"] {
		t.Errorf("traces %+v, want the one trace of both", arch.Traces)
	}

	if len(arch.Stores) != 1 {
		t.Fatalf("store reports %+v, want one", arch.Stores)
	}
	sr := arch.Stores[0]
	if sr.Stale || sr.NoPayload != 1 || sr.NoTrace != 2 {
		t.Errorf("store report %+v, want 1 result without payload, 2 without trace", sr)
	}
	if len(arch.PayloadMisses) != 0 {
		t.Errorf("payload misses %v", arch.PayloadMisses)
	}
	// The files directory holds no *.decisions.json: a miss each CLI
	// judges for itself.
	if len(arch.TraceMisses) != 1 {
		t.Errorf("trace misses %v, want the files directory", arch.TraceMisses)
	}
}
