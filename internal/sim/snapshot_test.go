package sim_test

// Equivalence guard for engine snapshots: capturing a run at a horizon
// and resuming it must be *byte-identical* to the straight-through run
// — same archive-codec bytes — across the stepping regimes (the naive
// reference and the fast path, whose sparse and dense machinery the
// workload mix exercises), with and without metrics/decision sinks, and
// with the snapshot itself routed through the export codec so the
// persisted form is what is proven equivalent. PlaceTimes is the one
// neutralized field: it is wall-clock, and a forked run's placement
// timings cover only post-fork placements by design.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/rng"
	"repro/internal/sim"
)

// snapshotCases selects the matrix the issue names: Sia, dense Synergy,
// a preemption-heavy bursty LAS workload — plus an rng-bearing Random
// placer (stream-position round-trip) and PAL (stateless policy whose
// fast run takes the placement-fixpoint regime).
func snapshotCases(t *testing.T) []ffCase {
	t.Helper()
	want := map[string]bool{
		"sia5/las/packed-sticky":                    true,
		"sia3/fifo/random-sticky":                   true,
		"sia1/fifo/pal":                             true,
		"dense-synergy/las/packed-sticky":           true,
		"preempt-heavy/las-lowthresh/packed-sticky": true,
	}
	var out []ffCase
	for _, c := range append(ffCases(t), denseCases(t)...) {
		if want[c.name] {
			out = append(out, c)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("selected %d snapshot cases, want %d (case names drifted?)", len(out), len(want))
	}
	return out
}

// archiveBytes encodes a result through the canonical codec with the
// wall-clock PlaceTimes neutralized.
func archiveBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	res.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotResumeByteIdentical(t *testing.T) {
	horizons := rng.New(0x5A95)
	for _, c := range snapshotCases(t) {
		c := c
		for _, disableFF := range []bool{false, true} {
			disableFF := disableFF
			for _, withSinks := range []bool{false, true} {
				withSinks := withSinks
				name := fmt.Sprintf("%s/naive=%v/sinks=%v", c.name, disableFF, withSinks)
				t.Run(name, func(t *testing.T) {
					attach := func(cfg *sim.Config) {
						if withSinks {
							cfg.Metrics = collectorFor(t, c, 3)
							cfg.Decisions = decision.MustRecorder(decision.Config{Label: c.name})
						}
					}
					straightCfg := c.config(t, disableFF)
					attach(&straightCfg)
					straight, err := sim.Run(straightCfg)
					if err != nil {
						t.Fatal(err)
					}
					if straight.Rounds < 4 {
						t.Fatalf("run too short (%d rounds) to snapshot meaningfully", straight.Rounds)
					}
					want := archiveBytes(t, straight)

					// One rng-chosen mid-run horizon plus the earliest
					// possible one (capture before any busy round beyond the
					// first can complete).
					for _, h := range []int{1 + horizons.Intn(straight.Rounds-2), 1} {
						h := h
						t.Run(fmt.Sprintf("h=%d", h), func(t *testing.T) {
							capCfg := c.config(t, disableFF)
							attach(&capCfg)
							snap, early, err := sim.Capture(capCfg, h)
							if err != nil {
								t.Fatal(err)
							}
							if early != nil {
								t.Fatalf("run completed before horizon %d (straight ran %d rounds)", h, straight.Rounds)
							}

							// The persisted form is what must resume: route
							// the snapshot through the canonical codec.
							var buf bytes.Buffer
							if err := export.EncodeSnapshot(&buf, snap); err != nil {
								t.Fatal(err)
							}
							decoded, err := export.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
							if err != nil {
								t.Fatal(err)
							}

							resCfg := c.config(t, disableFF)
							attach(&resCfg)
							forked, err := sim.Resume(resCfg, decoded)
							if err != nil {
								t.Fatal(err)
							}
							got := archiveBytes(t, forked)
							if !bytes.Equal(want, got) {
								t.Fatalf("resumed run not byte-identical to straight-through run (horizon %d of %d rounds)",
									h, straight.Rounds)
							}
						})
					}
				})
			}
		}
	}
}

// TestCaptureAfterCompletion pins the early-completion contract: a
// horizon at or past the run's natural end returns the finished result
// (identical to a plain run) and no snapshot.
func TestCaptureAfterCompletion(t *testing.T) {
	c := ffCases(t)[0]
	straight, err := sim.Run(c.config(t, false))
	if err != nil {
		t.Fatal(err)
	}
	want := archiveBytes(t, straight)
	snap, res, err := sim.Capture(c.config(t, false), straight.Rounds+10)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("got a snapshot from a horizon past the run's end")
	}
	if res == nil {
		t.Fatal("no result from a past-the-end capture")
	}
	if got := archiveBytes(t, res); !bytes.Equal(want, got) {
		t.Fatal("past-the-end capture result differs from a plain run")
	}
}

// TestSnapshotCodecFixedPoint mirrors the result codec suite: encoding a
// decoded snapshot must reproduce the original bytes exactly.
func TestSnapshotCodecFixedPoint(t *testing.T) {
	c := denseCases(t)[3] // dense-synergy/las: busy cluster, allocations in flight
	cfg := c.config(t, false)
	cfg.Metrics = collectorFor(t, c, 1)
	cfg.Decisions = decision.MustRecorder(decision.Config{Label: c.name})
	snap, res, err := sim.Capture(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("run completed before the fixed-point horizon (res=%v)", res != nil)
	}
	var first bytes.Buffer
	if err := export.EncodeSnapshot(&first, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := export.DecodeSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := export.EncodeSnapshot(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshot codec is not a fixed point: re-encoding a decoded snapshot changed the bytes")
	}
	if len(snap.Jobs) == 0 || snap.NextArrival == 0 {
		t.Fatal("fixed-point snapshot captured no arrived jobs; the case is vacuous")
	}
}

// spanLog is a metrics sink that records each observed span's length
// and running-set size, to locate bulk spans from outside the engine.
type spanLog struct{ spans [][2]int }

func (s *spanLog) ObserveRounds(o sim.RoundObservation) {
	s.spans = append(s.spans, [2]int{o.Rounds, len(o.Running)})
}
func (s *spanLog) FinishRun(*sim.Result) {}

// TestSnapshotResumeInsideFixpointSpan captures PAL and PM-First runs in
// the middle of a placement-fixpoint span — a bulk span of a non-sticky
// placer — and resumes them. The resumed engine does not carry the
// fixpoint mark: it re-places at the horizon, and must land on the GPUs
// the straight-through run kept, byte for byte.
func TestSnapshotResumeInsideFixpointSpan(t *testing.T) {
	want := map[string]bool{"sia1/fifo/pal": true, "dense-sia5/fifo/pal": true, "dense-synergy/fifo/pm-first": true}
	found := 0
	for _, c := range append(ffCases(t), denseCases(t)...) {
		if !want[c.name] {
			continue
		}
		found++
		c := c
		t.Run(c.name, func(t *testing.T) {
			log := &spanLog{}
			logCfg := c.config(t, false)
			logCfg.Metrics = log
			if _, err := sim.Run(logCfg); err != nil {
				t.Fatal(err)
			}
			// The longest busy span: a non-sticky placer bulk advances
			// only from a fixpoint, so every busy span longer than one
			// round is a fixpoint span.
			horizon, longest, round := 0, 0, 0
			for _, sp := range log.spans {
				if sp[1] > 0 && sp[0] > longest {
					longest, horizon = sp[0], round+sp[0]/2
				}
				round += sp[0]
			}
			if longest < 3 {
				t.Fatalf("no fixpoint span of 3+ rounds (longest %d)", longest)
			}

			for _, withMetrics := range []bool{false, true} {
				attach := func(cfg *sim.Config) {
					if withMetrics {
						cfg.Metrics = collectorFor(t, c, 3)
					}
				}
				straightCfg := c.config(t, false)
				attach(&straightCfg)
				straight, err := sim.Run(straightCfg)
				if err != nil {
					t.Fatal(err)
				}
				capCfg := c.config(t, false)
				attach(&capCfg)
				snap, early, err := sim.Capture(capCfg, horizon)
				if err != nil {
					t.Fatal(err)
				}
				if early != nil {
					t.Fatalf("run completed before horizon %d", horizon)
				}
				var buf bytes.Buffer
				if err := export.EncodeSnapshot(&buf, snap); err != nil {
					t.Fatal(err)
				}
				decoded, err := export.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				resCfg := c.config(t, false)
				attach(&resCfg)
				forked, err := sim.Resume(resCfg, decoded)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(archiveBytes(t, straight), archiveBytes(t, forked)) {
					t.Fatalf("resume at round %d, inside a %d-round fixpoint span, diverged (metrics=%v)",
						horizon, longest, withMetrics)
				}
			}
		})
	}
	if found != len(want) {
		t.Fatalf("found %d of %d cases (case names drifted?)", found, len(want))
	}
}
