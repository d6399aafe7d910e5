package journal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// FuzzLoadJournal writes arbitrary bytes as a journal file and runs what
// Load accepts through every reader palreport uses: Counts,
// EngineCounters, WallMS, WorkerBusy, MergeOps and the merged and
// unmerged histograms' Quantile. Load may return an error; nothing may
// panic. The seed is a real journal: one warm palsweep over
// examples/scenario/grid.json with a store, so task, counter and
// store-histogram records are all present. Run with
//
//	go test -run '^$' -fuzz '^FuzzLoadJournal$' -fuzztime=10s ./internal/journal
func FuzzLoadJournal(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "grid-demo.journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"type":"header","v":1,"role":"palsweep","workers":2,"pid":1,"start_ms":5}` + "\n" +
		`{"type":"task","worker":-3,"outcome":"executed","start_ms":1,"dur_ms":2,"counters":{}}` + "\n" +
		`{"type":"summary","end_ms":1,"store_get":{"count":1,"latency_ms":{"Lo":0,"Hi":0,"Counts":[],"N":1}}}`))
	f.Add([]byte(`{"type":"task","worker":0,"outcome":"error"`)) // torn trailing line
	path := filepath.Join(f.TempDir(), "fuzz"+Ext)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		if err != nil {
			return
		}
		p.Counts()
		p.EngineCounters()
		p.WallMS()
		p.WorkerBusy()
		if s := p.Summary; s != nil {
			for _, op := range []*OpStats{s.StoreGet, s.StorePut, MergeOps(s.StoreGet, s.StorePut), MergeOps(s.StoreGet, s.StoreGet)} {
				if op == nil {
					continue
				}
				for _, h := range []*stats.StreamingHist{op.LatencyMS, op.Bytes} {
					if h == nil {
						continue
					}
					for _, q := range []float64{0, 50, 99, 100} {
						h.Quantile(q)
					}
				}
			}
		}
	})
}
