package main

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/place"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// flagSpec parses palsim's simulation flags from args and translates
// them into a scenario spec, the path main takes without -scenario.
func flagSpec(t *testing.T, args ...string) (*scenario.Spec, error) {
	t.Helper()
	var sf simFlags
	fs := flag.NewFlagSet("palsim", flag.ContinueOnError)
	sf.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf.spec()
}

// encodeNoTimes encodes a result with its wall-clock placement timings
// cleared, the only field two runs of one configuration may differ in.
func encodeNoTimes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	r := *res
	r.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, &r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlagSpecMatchesFigureInputs pins that a flag run and the paper
// figures assemble the same simulation: the flag-built spec consumes
// the figures' trace and profile, and for the seed-independent placers
// its run encodes byte-identically to a run assembled by hand from
// those inputs (FIFO, L=1.5, the default migration penalty).
func TestFlagSpecMatchesFigureInputs(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		trace *trace.Trace
		topo  int
	}{
		{"sia-5", []string{"-trace", "sia", "-workload", "5"},
			experiments.SiaTrace(5), experiments.SiaTopology().Size()},
		{"synergy-10x800", []string{"-trace", "synergy", "-load", "10", "-jobs", "800"},
			experiments.SynergyTrace(10, 800), experiments.SynergyTopology().Size()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, pol := range []experiments.Policy{experiments.PALPolicy, experiments.PMFirst} {
				spec, err := flagSpec(t, append(tc.args, "-policy", pol.RegistryName())...)
				if err != nil {
					t.Fatal(err)
				}
				built, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(built.Trace.Jobs, tc.trace.Jobs) {
					t.Fatalf("flag-built trace %s differs from the figure trace %s", built.Trace.Name, tc.trace.Name)
				}
				if built.Topo.Size() != tc.topo {
					t.Fatalf("flag-built cluster has %d GPUs, figures use %d", built.Topo.Size(), tc.topo)
				}
				prof := experiments.LonghornProfile(tc.topo)
				for c := 0; c < prof.NumClasses(); c++ {
					if !reflect.DeepEqual(built.Profile.ClassScores(vprof.Class(c)), prof.ClassScores(vprof.Class(c))) {
						t.Fatalf("class %s scores differ from LonghornProfile(%d)", vprof.Class(c), tc.topo)
					}
				}

				got, err := built.Run()
				if err != nil {
					t.Fatal(err)
				}
				placer, err := place.Build(pol.RegistryName(), place.BuildEnv{
					Scores: vprof.BinProfile(prof), Lacross: 1.5, Seed: experiments.ExperimentSeed,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(sim.Config{
					Topology:            built.Topo,
					Trace:               tc.trace,
					Sched:               sched.FIFO{},
					Placer:              placer,
					TrueProfile:         prof,
					Lacross:             1.5,
					MigrationPenaltySec: scenario.DefaultMigrationPenaltySec,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeNoTimes(t, got), encodeNoTimes(t, want)) {
					t.Errorf("%s: flag run and the hand-assembled run encode differently", pol.RegistryName())
				}
			}
		})
	}
}

// TestFlagSpecOversizedCluster pins that a cluster larger than the
// generated Longhorn profile fails Build with an error; the flag path
// used to panic inside experiments.LonghornProfile.
func TestFlagSpecOversizedCluster(t *testing.T) {
	spec, err := flagSpec(t, "-trace", "synergy", "-nodes", "200", "-jobs", "50")
	if err != nil {
		t.Fatal(err)
	}
	_, err = spec.Build()
	if err == nil || !strings.Contains(err.Error(), "longhorn profiles cover at most 416 GPUs") {
		t.Fatalf("Build of an 800-GPU longhorn cluster: err = %v, want the 416-GPU bound", err)
	}
}

// TestFlagSpecNames pins the flag-to-spec vocabulary: policy aliases
// resolve to their canonical names, and an unknown trace family is an
// error.
func TestFlagSpecNames(t *testing.T) {
	for alias, canonical := range map[string]string{
		"tiresias": "packed-sticky",
		"gandiva":  "packed-non-sticky",
		"random":   "random-non-sticky",
		"pmfirst":  "pm-first",
		"pal":      "pal",
	} {
		spec, err := flagSpec(t, "-policy", alias)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Policy.Name != canonical {
			t.Errorf("-policy %s built policy %q, want %q", alias, spec.Policy.Name, canonical)
		}
	}
	if _, err := flagSpec(t, "-trace", "philly"); err == nil {
		t.Error("unknown trace family accepted")
	}
}
