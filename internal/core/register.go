package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// The paper's two contributed policies register themselves in the
// shared placement registry (see internal/place/registry.go), making
// "pm-first" and "pal" addressable by name from scenario specs, the
// experiments layer and the CLIs alongside the baselines.
//
// Their params (a scenario's policy.params) are the paper's ablation
// knobs, each on the placer its ablation runs. Each param's zero value
// is the paper's configuration:
//
//   - bins (pm-first): a fixed K-Means bin count K >= 1 per class
//     (vprof.BinProfileK) in place of the silhouette-selected K;
//   - exact_scores (pm-first): 1 consults the exact per-GPU scores,
//     unbinned;
//   - no_class_priority (pm-first): 1 drops the class placement
//     priority (Fig. 4);
//   - no_hysteresis (pal): 1 re-places every job fresh each round;
//   - online (pal): 1 learns scores from execution feedback
//     (OnlineScorer, §V-A's proposed fix); the placer is then the run's
//     sim.Observer;
//   - two_level (pal): 1 keeps the paper's two-level L×V matrix on a
//     racked cluster (locality.lrack > 0) instead of the rack extension.
func init() {
	place.Register("pm-first", func(env place.BuildEnv) (sim.Placer, error) {
		pp, err := parseParams("pm-first", env, "bins", "exact_scores", "no_class_priority")
		if err != nil {
			return nil, err
		}
		var p *PMFirst
		if pp.exact {
			p = NewPMFirst(env.Profile)
		} else {
			p = NewPMFirst(pp.scores)
		}
		p.NoClassPriority = pp.noClassPriority
		return p, nil
	})
	place.Register("pal", func(env place.BuildEnv) (sim.Placer, error) {
		pp, err := parseParams("pal", env, "no_hysteresis", "online", "two_level")
		if err != nil {
			return nil, err
		}
		if pp.twoLevel && env.Lrack == 0 {
			return nil, fmt.Errorf("core: pal two_level=1 needs a rack level (locality.lrack > 0); without one PAL is two-level already")
		}
		p := NewPAL(pp.scores, env.Lacross, env.ModelLacross)
		p.NoHysteresis = pp.noHysteresis
		if env.Lrack > 0 && !pp.twoLevel {
			p.EnableRackLevel(env.Lrack)
		}
		return pp.observed(p), nil
	})
	place.RegisterAlias("pmfirst", "pm-first")
}

// paperParams are the decoded params of a pm-first or pal build.
type paperParams struct {
	// scores is the view the placer consults: the environment's
	// silhouette binning, rebinned under bins, wrapped under online.
	scores vprof.BinnedScorer
	online *OnlineScorer

	exact, noClassPriority, noHysteresis, twoLevel bool
}

// parseParams validates env.Params against the params the named policy
// allows and decodes them.
func parseParams(name string, env place.BuildEnv, allowed ...string) (paperParams, error) {
	if env.Scores == nil {
		return paperParams{}, fmt.Errorf("core: %s requires a PM-score profile", name)
	}
	pp := paperParams{scores: env.Scores}
	if len(env.Params) == 0 {
		return pp, nil
	}
	keys := make([]string, 0, len(env.Params))
	for k := range env.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bins, online := 0, false
	for _, k := range keys {
		v := env.Params[k]
		if !slices.Contains(allowed, k) {
			return paperParams{}, fmt.Errorf("core: %s does not understand parameter %q (have %v)", name, k, allowed)
		}
		if k == "bins" {
			if v != math.Trunc(v) || v < 1 || v > float64(env.Scores.NumGPUs()) {
				return paperParams{}, fmt.Errorf("core: %s bins=%g, want an integer from 1 to %d (the profile's GPUs)",
					name, v, env.Scores.NumGPUs())
			}
			bins = int(v)
			continue
		}
		if v != 0 && v != 1 {
			return paperParams{}, fmt.Errorf("core: %s %s=%g, want 0 (paper default) or 1", name, k, v)
		}
		on := v == 1
		switch k {
		case "exact_scores":
			pp.exact = on
		case "no_class_priority":
			pp.noClassPriority = on
		case "no_hysteresis":
			pp.noHysteresis = on
		case "online":
			online = on
		case "two_level":
			pp.twoLevel = on
		}
	}
	if pp.exact && bins > 0 {
		return paperParams{}, fmt.Errorf("core: %s exact_scores excludes bins (it consults unbinned scores)", name)
	}
	if (bins > 0 || pp.exact) && env.Profile == nil {
		return paperParams{}, fmt.Errorf("core: %s bins and exact_scores need the raw profile", name)
	}
	if bins > 0 {
		pp.scores = vprof.BinProfileK(env.Profile, bins)
	}
	if online {
		pp.online = NewOnlineScorer(pp.scores)
		pp.scores = pp.online
	}
	return pp, nil
}

// observed returns p as built, or, under online, p paired with the
// scorer it consults, so the run feeds that scorer its execution
// feedback.
func (pp paperParams) observed(p sim.Placer) sim.Placer {
	if pp.online == nil {
		return p
	}
	return observedPlacer{p, pp.online}
}

// observedPlacer is a placer over an OnlineScorer. It is a sim.Observer
// through the scorer, which the scenario layer attaches as the run's
// observer. It drops the placer's fixpoint capability, which a learning
// scorer disables anyway.
type observedPlacer struct {
	sim.Placer
	*OnlineScorer
}

var _ sim.Observer = observedPlacer{}
