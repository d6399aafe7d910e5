package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"ablation_hysteresis", "ablation_k", "ablation_online",
		"ablation_priority", "ablation_rack",
		"fig03", "fig05", "fig06_08", "fig09", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16_17", "fig18", "fig19", "fig20",
		"headline", "table04",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %s has no description", n)
		}
	}
	if Describe("bogus") != "" {
		t.Error("unknown experiment has a description")
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := RunByName("bogus", QuickScale()); err == nil {
		t.Error("unknown experiment did not error")
	}
}

// TestFig11PALWins checks the headline qualitative result at quick scale:
// PAL and PM-First beat every baseline in geomean, and PAL beats
// PM-First.
func TestFig11PALWins(t *testing.T) {
	runs, err := RunSiaBaseline(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	geo := map[Policy]float64{}
	for _, pol := range AllPolicies() {
		var ratios []float64
		for _, run := range runs {
			base := stats.Mean(run.Results[Tiresias].JCTs())
			ratios = append(ratios, stats.Mean(run.Results[pol].JCTs())/base)
		}
		geo[pol] = stats.GeoMean(ratios)
	}
	if geo[PALPolicy] >= geo[Tiresias] {
		t.Errorf("PAL %v should beat Tiresias %v", geo[PALPolicy], geo[Tiresias])
	}
	if geo[PMFirst] >= geo[Tiresias] {
		t.Errorf("PM-First %v should beat Tiresias %v", geo[PMFirst], geo[Tiresias])
	}
	if geo[PALPolicy] > geo[PMFirst] {
		t.Errorf("PAL %v should be at least as good as PM-First %v", geo[PALPolicy], geo[PMFirst])
	}
	if geo[Tiresias] > geo[RandomNonSticky] {
		t.Errorf("Tiresias %v should beat Random-Non-Sticky %v", geo[Tiresias], geo[RandomNonSticky])
	}
}

// TestSiaResultsComplete: every workload/policy cell exists and every
// measured job completed.
func TestSiaResultsComplete(t *testing.T) {
	runs, err := RunSiaBaseline(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(QuickScale().SiaTraces) {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, run := range runs {
		for _, pol := range AllPolicies() {
			res, ok := run.Results[pol]
			if !ok {
				t.Fatalf("w%d missing %s", run.WorkloadIdx, pol)
			}
			if len(res.Measured) != 160 {
				t.Errorf("w%d %s measured %d jobs, want 160", run.WorkloadIdx, pol, len(res.Measured))
			}
			if res.Makespan <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
				t.Errorf("w%d %s makespan=%v util=%v", run.WorkloadIdx, pol, res.Makespan, res.Utilization)
			}
		}
	}
}

// TestTable04ClusterWorseThanSim: stale profiles must make the "cluster"
// runs slower than the matching simulations, and PAL must still beat
// Tiresias on the cluster.
func TestTable04ClusterWorseThanSim(t *testing.T) {
	for _, pol := range []Policy{Tiresias, PALPolicy} {
		clusterRes, err := runTestbed(QuickScale(), pol, true)
		if err != nil {
			t.Fatal(err)
		}
		simRes, err := runTestbed(QuickScale(), pol, false)
		if err != nil {
			t.Fatal(err)
		}
		c := stats.Mean(clusterRes.JCTs())
		s := stats.Mean(simRes.JCTs())
		if c < s {
			t.Errorf("%s: cluster JCT %v should exceed sim %v (stale profile)", pol, c, s)
		}
	}
	palC, err := runTestbed(QuickScale(), PALPolicy, true)
	if err != nil {
		t.Fatal(err)
	}
	tirC, err := runTestbed(QuickScale(), Tiresias, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(palC.JCTs()) >= stats.Mean(tirC.JCTs()) {
		t.Error("PAL should beat Tiresias on the (simulated) physical cluster")
	}
}

func TestPolicyString(t *testing.T) {
	for _, pol := range AllPolicies() {
		if pol.String() == "" || strings.HasPrefix(pol.String(), "Policy(") {
			t.Errorf("policy %d has no name", int(pol))
		}
	}
	if !strings.HasPrefix(Policy(99).String(), "Policy(") {
		t.Error("unknown policy should stringify numerically")
	}
}

func TestProfileCaching(t *testing.T) {
	a := LonghornProfile(64)
	b := LonghornProfile(64)
	if a != b {
		t.Error("LonghornProfile not cached")
	}
	c := LonghornProfile(128)
	if c.NumGPUs() != 128 {
		t.Errorf("profile size %d", c.NumGPUs())
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{Name: "t", Title: "title", Header: []string{"a", "b"}}
	tb.AddRowf("x", 3)
	tb.AddRowf(1.5, "y")
	tb.Note("note %d", 7)
	s := tb.String()
	for _, want := range []string{"t: title", "x", "note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if Pct(0.42) != "+42.0%" {
		t.Errorf("Pct = %s", Pct(0.42))
	}
	if Pct(-0.07) != "-7.0%" {
		t.Errorf("Pct = %s", Pct(-0.07))
	}
	if h := Hours(7200); h != "2.00" {
		t.Errorf("Hours = %s", h)
	}
}

// TestFig13ImprovementShrinksWithPenalty: the Fig. 13 trend — PM-First's
// edge over Tiresias shrinks as the locality penalty grows.
func TestFig13ImprovementShrinksWithPenalty(t *testing.T) {
	scale := QuickScale()
	table, err := Fig13(scale)
	if err != nil {
		t.Fatal(err)
	}
	var tiresias, pmfirst []float64
	for _, row := range table.Rows {
		vals := make([]float64, 0, len(row)-1)
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparsable cell %q", cell)
			}
			vals = append(vals, v)
		}
		switch row[0] {
		case "Tiresias":
			tiresias = vals
		case "PM-First":
			pmfirst = vals
		}
	}
	if len(tiresias) == 0 || len(pmfirst) == 0 {
		t.Fatal("missing rows")
	}
	n := len(tiresias) - 1
	impLo := stats.Improvement(tiresias[0], pmfirst[0])
	impHi := stats.Improvement(tiresias[n], pmfirst[n])
	if impHi >= impLo {
		t.Errorf("PM-First improvement should shrink with penalty: %v -> %v", impLo, impHi)
	}
}
