package sim_test

// Equivalence guard for the decision-trace hook: attaching a
// decision.Recorder must not forfeit fast-forwarding, must leave the
// simulation Result byte-identical (to a naive run AND to an
// uninstrumented run), and the recorded trace must be *byte-identical*
// across the engine's stepping regimes — the naive loop's length-1
// observations and the fast path's bulk spans must coalesce to the same
// records, bit for bit. The matrix is the union of the sparse
// fast-forward cases (Sia, sparse Synergy, non-sticky PAL) and the
// dense-incremental cases (saturated Sia/Synergy queues, the
// preemption-heavy low-threshold-LAS bursty workload).

import (
	"reflect"
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
)

// recorderFor builds a fresh all-facet recorder for one case.
func recorderFor(t *testing.T, name string) *decision.Recorder {
	t.Helper()
	return decision.MustRecorder(decision.Config{Label: name})
}

func TestDecisionTraceByteIdentical(t *testing.T) {
	suiteCtr := &sim.Counters{}
	cases := append(ffCases(t), denseCases(t)...)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Uninstrumented fast run: the reference for non-perturbation.
			bare, err := sim.Run(c.config(t, false))
			if err != nil {
				t.Fatal(err)
			}

			naiveCfg := c.config(t, true)
			naiveCfg.Decisions = recorderFor(t, c.name)
			naive, err := sim.Run(naiveCfg)
			if err != nil {
				t.Fatal(err)
			}
			fastCfg := c.config(t, false)
			fastCfg.Decisions = recorderFor(t, c.name)
			fastCfg.Counters = &sim.Counters{}
			fast, err := sim.Run(fastCfg)
			if err != nil {
				t.Fatal(err)
			}
			suiteCtr.Add(fastCfg.Counters)

			nt, ft := decision.FromResult(naive), decision.FromResult(fast)
			if nt == nil || ft == nil {
				t.Fatal("trace missing from an instrumented run")
			}
			// Coverage: every simulated round in exactly one record span.
			if nt.Rounds != int64(naive.Rounds) || ft.Rounds != int64(fast.Rounds) {
				t.Errorf("trace covers %d/%d rounds, runs had %d/%d",
					nt.Rounds, ft.Rounds, naive.Rounds, fast.Rounds)
			}
			if !reflect.DeepEqual(nt, ft) {
				if len(nt.Records) != len(ft.Records) {
					t.Errorf("record count diverged: naive %d, fast %d",
						len(nt.Records), len(ft.Records))
				}
				for i := 0; i < len(nt.Records) && i < len(ft.Records); i++ {
					if !reflect.DeepEqual(nt.Records[i], ft.Records[i]) {
						t.Errorf("record %d diverged:\n  naive %+v\n  fast  %+v",
							i, nt.Records[i], ft.Records[i])
						break
					}
				}
				t.Fatal("decision trace not byte-identical across stepping regimes")
			}

			// The simulation itself must stay byte-identical with the sink
			// attached — against the naive instrumented run and against the
			// uninstrumented run (wall-clock PlaceTimes and the sink
			// pointers excluded, as in the metrics tests).
			// A decision sink keeps a fixpoint placer on every round (its
			// placements are traced every round), so only the bare run
			// may skip placement calls.
			checkPlaceCalls(t, c, "naive", naive, "fast", fast, false)
			checkPlaceCalls(t, c, "instrumented", fast, "bare", bare, true)
			naive.PlaceTimes, fast.PlaceTimes, bare.PlaceTimes = nil, nil, nil
			naive.Decisions, fast.Decisions = nil, nil
			if !reflect.DeepEqual(naive, fast) {
				t.Fatal("instrumented result not byte-identical to naive loop")
			}
			if !reflect.DeepEqual(bare, fast) {
				t.Fatal("decision sink perturbed the simulation result")
			}
		})
	}
	// Engagement guard: the suite must actually have exercised the dense
	// bulk path with recorders attached — otherwise the byte-identity
	// above is vacuous.
	if suiteCtr.DenseSpans == 0 {
		t.Error("dense bulk-advance path never engaged across the decision suite")
	}
}

// TestDecisionsKeepFastForwardEngaged guards the performance claim's
// precondition: with a recorder attached, a sparse sticky run must still
// skip its dead time. If the sink silently forced the naive path, the
// byte-identity test above would pass vacuously.
func TestDecisionsKeepFastForwardEngaged(t *testing.T) {
	cfg := sparseConfig(false)
	rec := decision.MustRecorder(decision.Config{Label: "sparse"})
	cfg.Decisions = rec
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 24 jobs, everything fits on arrival: one placement per arrival.
	if len(res.PlaceTimes) > 30 {
		t.Errorf("placement called %d times with decisions attached; fast-forward not engaging",
			len(res.PlaceTimes))
	}
	tr := decision.FromResult(res)
	if tr == nil {
		t.Fatal("no trace")
	}
	if tr.Rounds != int64(res.Rounds) {
		t.Errorf("recorder observed %d rounds, engine ran %d", tr.Rounds, res.Rounds)
	}
	if len(tr.Records) == 0 {
		t.Fatal("trace has no records")
	}
	// The trace must be compact: one record per decision change, not per
	// round — a sparse run's records are bounded by its arrivals and
	// completions, far below its round count.
	if len(tr.Records) > 120 {
		t.Errorf("%d records on a 24-job sparse trace; spans not coalescing", len(tr.Records))
	}
	// Placements must carry the Equation-1 decomposition.
	placed := 0
	for _, rec := range tr.Records {
		for _, p := range rec.Placements {
			placed++
			if p.Slowdown != p.Locality*p.PMScore {
				t.Errorf("placement job %d: slowdown %v != locality %v × pm %v",
					p.Job, p.Slowdown, p.Locality, p.PMScore)
			}
			if p.GPUs <= 0 || p.Nodes <= 0 {
				t.Errorf("placement job %d: degenerate span gpus=%d nodes=%d",
					p.Job, p.GPUs, p.Nodes)
			}
		}
	}
	if placed == 0 {
		t.Error("no placements recorded")
	}
}
