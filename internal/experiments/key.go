package experiments

import (
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Content addressing for the runner's result cache. A RunSpec's Key is a
// canonical hash of everything that can influence the simulation's
// outcome — the full trace, the full profile(s), topology, scheduler,
// policy, penalties, seed and measurement window — so two specs share a
// key exactly when the engine would produce identical results for them.
// This is what lets the cache be shared safely across experiments
// (Fig. 11, Fig. 12 and the headline metrics all reuse the Sia baseline
// runs; Fig. 14 and Fig. 19 overlap at 8 jobs/hour under FIFO) and what
// fixes the stale-cache hazard of the old name-keyed sync.Map caches: a
// changed penalty, seed or scale can never alias a previous entry.

// profileDigests memoizes per-profile content digests: profiles are
// shared, immutable after construction, and hashed once each.
var profileDigests runner.Memo[*vprof.Profile, string]

// profileDigest hashes a profile's full content (name, shape, every
// score).
func profileDigest(p *vprof.Profile) string {
	if p == nil {
		return "nil"
	}
	return profileDigests.Get(p, func() string {
		h := runner.NewHash()
		h.String(p.Name())
		h.Int(p.NumClasses())
		h.Int(p.NumGPUs())
		for c := 0; c < p.NumClasses(); c++ {
			h.Floats(p.ClassScores(vprof.Class(c)))
		}
		return h.Sum()
	})
}

// hashTrace feeds a trace's full content into the hasher. Traces are
// regenerated per call site, so the digest is computed from content, not
// pointer identity — equal workloads hash equal wherever they were
// built.
func hashTrace(h *runner.Hash, t *trace.Trace) {
	if t == nil {
		h.String("nil-trace")
		return
	}
	h.String(t.Name)
	h.Int(len(t.Jobs))
	for _, j := range t.Jobs {
		h.Int(j.ID)
		h.String(j.Model)
		h.Int(int(j.Class))
		h.Float64(j.Arrival)
		h.Int(j.Demand)
		h.Float64(j.Work)
	}
}

// Key returns the canonical content hash of the spec. Every field of
// RunSpec that can influence the simulation's outcome feeds the digest;
// extending RunSpec requires extending this function (the version tag
// below guards against silent drift: bump it whenever the encoding
// changes). The deliberate exceptions are Counters — an
// observation-only out-param that never changes the Result, so it must
// NOT feed the digest: hashing it would needlessly split cache entries
// between instrumented and bare runs of the same simulation — and
// DisableFastForward, a stepping switch every regime of which yields
// the same Result.
func (s RunSpec) Key() string {
	h := runner.NewHash()
	// v4: RunSpec dropped the event/metrics/decision recording flags
	// (palsim's flag runs now go through the scenario layer) and the
	// round-length and migration-penalty overrides no caller set. v2
	// and v3 had added the metrics and decision flags.
	h.String("runspec/v4")

	hashTrace(h, s.Trace)
	h.Int(s.Topo.NumNodes)
	h.Int(s.Topo.GPUsPerNode)
	h.Int(s.Topo.NodesPerRack)
	if s.Sched != nil {
		// Scheduler configuration lives in small value structs (e.g.
		// LAS.Threshold); the Go-syntax representation captures type and
		// fields deterministically.
		h.String(fmt.Sprintf("%T%+v", s.Sched, s.Sched))
	} else {
		h.String("nil-sched")
	}
	h.Int(int(s.Policy))
	h.String(profileDigest(s.Profile))
	h.String(profileDigest(s.ProfiledView))
	h.Float64(s.Lacross)
	if s.ModelLacross == nil {
		h.Int(-1)
	} else {
		models := make([]string, 0, len(s.ModelLacross))
		for m := range s.ModelLacross {
			models = append(models, m)
		}
		sort.Strings(models)
		h.Int(len(models))
		for _, m := range models {
			h.String(m)
			h.Float64(s.ModelLacross[m])
		}
	}
	h.Uint64(s.Seed)
	h.Int(s.MeasureFirst)
	h.Int(s.MeasureLast)
	h.Bool(s.RecordUtil)
	return h.Sum()
}
