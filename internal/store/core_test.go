package store

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The core-read view must keep the store's self-healing contract: a
// damaged object is an error, the cache re-simulates, and the Put of
// the fresh result replaces the damage.

var _ runner.Backend = CoreReads{}

// fullSpec records both payloads, so its object has both sections.
const fullSpec = `{"name": "core-heal", "cluster": {"nodes": 2},
	"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30},
	"policy": {"name": "packed-sticky"},
	"metrics": {"enabled": true}, "decisions": {"enabled": true}}`

func TestStoreCoreReadsHealThroughCache(t *testing.T) {
	key, res := runSpec(t, fullSpec)
	var want bytes.Buffer
	if err := export.EncodeResult(&want, res); err != nil {
		t.Fatal(err)
	}
	for name, at := range map[string]func(n int) int{
		"core":      func(int) int { return 1 },
		"decisions": func(n int) int { return n - 2 },
	} {
		t.Run(name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key, res); err != nil {
				t.Fatal(err)
			}
			damaged := bytes.Clone(want.Bytes())
			damaged[at(len(damaged))] ^= 0x01
			if err := os.WriteFile(st.objectPath(key), damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			cache := runner.NewResultCache(0)
			cache.SetBackend(CoreReads{Store: st})
			runs := 0
			got, hit, err := cache.Do(key, func() (*sim.Result, error) { runs++; return res, nil })
			if err != nil || hit || runs != 1 || got != res {
				t.Fatalf("hit=%v runs=%d err=%v, want one re-simulation", hit, runs, err)
			}
			if cs := cache.Stats(); cs.StoreErrors != 1 || cs.Stored != 1 {
				t.Fatalf("stats %+v, want one store error and one healing put", cs)
			}
			if healed, err := os.ReadFile(st.objectPath(key)); err != nil || !bytes.Equal(healed, want.Bytes()) {
				t.Fatalf("object not healed (err=%v)", err)
			}
			if problems, err := st.Verify(); err != nil || len(problems) != 0 {
				t.Fatalf("verify after heal: problems=%v err=%v", problems, err)
			}

			// A later process reads the healed object's core.
			warm := runner.NewResultCache(0)
			warm.SetBackend(CoreReads{Store: st})
			core, hit, err := warm.Do(key, func() (*sim.Result, error) {
				t.Fatal("healed object re-simulated")
				return nil, nil
			})
			if err != nil || !hit || core.Metrics != nil || core.Decisions != nil || len(core.Jobs) != len(res.Jobs) {
				t.Fatalf("warm core read: hit=%v err=%v", hit, err)
			}
		})
	}
}
