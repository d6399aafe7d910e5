package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// refPlaceRound is the hysteresis loop reserving through the cluster:
// it holds and returns GPUs with Allocate/Release on a clone of c, and
// every fresh pick reads a reservation started anew from the clone's
// state — no holds carried between picks. The placers' loop must return
// exactly its map; the two differ only in how the round's holds are
// kept.
func refPlaceRound(
	c *cluster.Cluster,
	o *scoreOrder,
	need []*sim.Job,
	opts placeOpts,
	fresh func(*reservation, *sim.Job) []cluster.GPUID,
	quality func(*sim.Job, []cluster.GPUID) float64,
) map[int][]cluster.GPUID {
	cc := cluster.New(c.Topology())
	for g := range c.Size() {
		if id := c.Owner(cluster.GPUID(g)); id >= 0 {
			cc.Allocate(id, []cluster.GPUID{cluster.GPUID(g)})
		}
	}
	ordered := slices.Clone(need)
	if !opts.noClassPriority {
		slices.SortStableFunc(ordered, func(a, b *sim.Job) int { return cmp.Compare(a.Spec.Class, b.Spec.Class) })
	}
	kept := make([][]cluster.GPUID, len(ordered))
	for i, j := range ordered {
		prev := j.PrevAlloc
		if opts.noHysteresis || len(prev) != j.Spec.Demand ||
			slices.ContainsFunc(prev, func(g cluster.GPUID) bool { return !cc.IsFree(g) }) {
			continue
		}
		cc.Allocate(j.Spec.ID, prev)
		kept[i] = prev
	}
	out := make(map[int][]cluster.GPUID, len(need))
	for i, j := range ordered {
		prev := kept[i]
		if prev != nil {
			cc.Release(prev)
		}
		var r reservation
		r.start(cc.View(), o)
		alloc := slices.Clone(fresh(&r, j))
		if prev != nil && quality(j, prev) <= quality(j, alloc) {
			alloc = prev
		}
		cc.Allocate(j.Spec.ID, alloc)
		out[j.Spec.ID] = slices.Clone(alloc)
	}
	return out
}

// scoreRow reads one class's scores from the scorer, one call per GPU:
// the reference for the row of the round's score table that the placers'
// quality tests read.
func scoreRow(s vprof.Scorer, class vprof.Class, n int) []float64 {
	row := make([]float64, n)
	for g := range row {
		row[g] = s.Score(class, g)
	}
	return row
}

// versionedFake is a fakeBinned whose scores move at run time: shuffle
// permutes each class's scores across the GPUs (so the bins, and PAL's
// matrices, stay valid) and bumps the version the placers' order cache
// watches.
type versionedFake struct {
	*fakeBinned
	version uint64
}

func (f *versionedFake) Version() uint64 { return f.version }

func (f *versionedFake) shuffle(r *rng.RNG) {
	for _, s := range f.scores {
		rng.Shuffle(r, s)
	}
	f.version++
}

// reserveCase is one placer configuration the property test drives: the
// placer, the cluster shape, and the reference's view of its loop.
type reserveCase struct {
	name    string
	topo    cluster.Topology
	rack    bool // PAL with the rack level on
	opts    placeOpts
	pal     bool
	version bool // a versioned scorer
}

// TestReservationMatchesClusterReference: PAL and PM-First reserve in a
// placer-local stamp array and per-class score-rank bitsets, and must
// return exactly what the loop reserving through the cluster returns —
// over random busy sets, PrevAllocs that are stale, short or overlap
// another job's, multi-round sequences with engine-style PrevAlloc
// copies, a wrap of the stamp generation, and every ablation switch.
// The reference's keep-or-move test reads the scorer, not the placers'
// score table. The 68-GPU clusters need two bitset words per class, the
// second one partial, so the walks cross a word boundary and must stop
// at the end of the last word.
func TestReservationMatchesClusterReference(t *testing.T) {
	flat := cluster.Topology{NumNodes: 6, GPUsPerNode: 4}
	racked := cluster.Topology{NumNodes: 8, GPUsPerNode: 2, NodesPerRack: 3}
	wide := cluster.Topology{NumNodes: 17, GPUsPerNode: 4}
	wideRacked := cluster.Topology{NumNodes: 34, GPUsPerNode: 2, NodesPerRack: 5}
	cases := []reserveCase{
		{name: "pm-first", topo: flat},
		{name: "pm-first/no-hysteresis", topo: flat, opts: placeOpts{noHysteresis: true}},
		{name: "pm-first/no-class-priority", topo: flat, opts: placeOpts{noClassPriority: true}},
		{name: "pm-first/versioned", topo: flat, version: true},
		{name: "pal", topo: flat, pal: true},
		{name: "pal/no-hysteresis", topo: flat, pal: true, opts: placeOpts{noHysteresis: true}},
		{name: "pal/rack", topo: racked, pal: true, rack: true},
		{name: "pal/versioned", topo: racked, pal: true, version: true},
		{name: "pm-first/multi-word", topo: wide},
		{name: "pm-first/multi-word/no-class-priority", topo: wide, opts: placeOpts{noClassPriority: true}},
		{name: "pal/multi-word", topo: wide, pal: true},
		{name: "pal/multi-word/rack", topo: wideRacked, pal: true, rack: true},
		{name: "pal/multi-word/versioned", topo: wideRacked, pal: true, version: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := rng.New(0x5e7 + uint64(ci))
			for trial := range 40 {
				checkReservationTrial(t, tc, root.Split(uint64(trial)), fmt.Sprintf("trial %d", trial))
			}
		})
	}
}

func checkReservationTrial(t *testing.T, tc reserveCase, r *rng.RNG, label string) {
	t.Helper()
	n := tc.topo.Size()
	perClass := make([][]float64, 3)
	for c := range perClass {
		perClass[c] = make([]float64, n)
		for g := range perClass[c] {
			// Few distinct values, so ties and equal-quality keeps occur.
			perClass[c][g] = 0.9 + 0.2*float64(r.Intn(4))
		}
	}
	vf := &versionedFake{fakeBinned: newFake(perClass)}
	var scorer vprof.BinnedScorer = vf.fakeBinned
	if tc.version {
		scorer = vf
	}

	var (
		p       sim.Placer
		h       *hysteresis
		cache   *orderCache
		fresh   func(*reservation, *sim.Job) []cluster.GPUID
		quality func(*sim.Job, []cluster.GPUID) float64
	)
	if tc.pal {
		pal := NewPAL(scorer, 1.2+r.Float64(), nil)
		pal.NoHysteresis = tc.opts.noHysteresis
		if tc.rack {
			pal.EnableRackLevel(1.1)
		}
		p, h, cache = pal, &pal.hyst, &pal.cache
		fresh = pal.placeJob
		topo := cluster.New(tc.topo).View()
		quality = func(j *sim.Job, gpus []cluster.GPUID) float64 {
			return pal.lvProduct(topo, scoreRow(scorer, j.Spec.Class, n), j, gpus)
		}
	} else {
		pm := NewPMFirst(scorer)
		pm.NoHysteresis = tc.opts.noHysteresis
		pm.NoClassPriority = tc.opts.noClassPriority
		p, h, cache = pm, &pm.hyst, &pm.cache
		fresh = func(res *reservation, j *sim.Job) []cluster.GPUID {
			got, ok := res.takeBest(nil, j.Spec.Class, j.Spec.Demand)
			if !ok {
				t.Fatalf("%s: reference cannot place job %d", label, j.Spec.ID)
			}
			return got
		}
		quality = func(j *sim.Job, gpus []cluster.GPUID) float64 {
			return maxScore(scoreRow(scorer, j.Spec.Class, n), gpus)
		}
	}

	c := cluster.New(tc.topo)
	busy := r.Intn(n / 2)
	var jobs []*sim.Job
	for left := n - busy; len(jobs) < 8; {
		d := 1 + r.Intn(2*tc.topo.GPUsPerNode+1)
		if d > left {
			break
		}
		jobs = append(jobs, mkJob(len(jobs), d, vprof.Class(r.Intn(3))))
		left -= d
	}
	// Round 0 sizes the stamps (generation 1); a later round stamps at
	// the last generation before the wrap.
	wrapAt := 1 + r.Intn(4)
	for round := range 6 {
		// A fresh busy set of the same size each round.
		c.Reset()
		for _, g := range r.Perm(n)[:busy] {
			c.Allocate(1000+g, []cluster.GPUID{cluster.GPUID(g)})
		}
		// Disturb some PrevAllocs the way preemption and stale state do:
		// a random set (maybe busy, maybe another job's), a short one, or
		// none at all.
		for _, j := range jobs {
			switch r.Intn(6) {
			case 0:
				j.PrevAlloc = nil
			case 1:
				perm := r.Perm(n)
				j.PrevAlloc = make([]cluster.GPUID, j.Spec.Demand)
				for i := range j.PrevAlloc {
					j.PrevAlloc[i] = cluster.GPUID(perm[i])
				}
			case 2:
				// Overlap another job's previous GPUs.
				if other := jobs[r.Intn(len(jobs))]; other != j {
					prev := slices.Clone(other.PrevAlloc[:min(len(other.PrevAlloc), j.Spec.Demand)])
					for _, g := range r.Perm(n) {
						if len(prev) == j.Spec.Demand {
							break
						}
						if !slices.Contains(prev, cluster.GPUID(g)) {
							prev = append(prev, cluster.GPUID(g))
						}
					}
					j.PrevAlloc = prev
				}
			case 3:
				if len(j.PrevAlloc) > 1 {
					j.PrevAlloc = j.PrevAlloc[:len(j.PrevAlloc)-1]
				}
			}
		}
		if tc.version && round > 0 && r.Intn(2) == 0 {
			vf.shuffle(r)
		}
		if round == wrapAt {
			// This round stamps at the last generation; the next wraps
			// to 1, which round 0 stamped with.
			h.res.gen = math.MaxUint32 - 1
		}
		need := slices.Clone(jobs)
		rng.Shuffle(r, need)

		got := maps.Clone(p.PlaceRound(c, need, 0))
		for id, alloc := range got {
			got[id] = slices.Clone(alloc)
		}
		o := cache.get(scorer, scorer.NumClasses(), n, tc.topo.GPUsPerNode)
		want := refPlaceRound(c, o, need, tc.opts, fresh, quality)
		if !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s round %d: placer returned %v, reference %v", label, round, got, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s round %d: %v", label, round, err)
		}
		for _, j := range jobs {
			j.PrevAlloc = slices.Clone(got[j.Spec.ID])
		}
	}
}
