package core

import (
	"fmt"

	"repro/internal/place"
	"repro/internal/sim"
)

// The paper's two contributed policies register themselves in the
// shared placement registry (see internal/place/registry.go), making
// "pm-first" and "pal" addressable by name from scenario specs, the
// experiments layer and the CLIs alongside the baselines.
func init() {
	place.Register("pm-first", func(env place.BuildEnv) (sim.Placer, error) {
		if env.Scores == nil {
			return nil, fmt.Errorf("core: pm-first requires a PM-score profile")
		}
		return NewPMFirst(env.Scores), nil
	})
	place.Register("pal", func(env place.BuildEnv) (sim.Placer, error) {
		if env.Scores == nil {
			return nil, fmt.Errorf("core: pal requires a PM-score profile")
		}
		p := NewPAL(env.Scores, env.Lacross, env.ModelLacross)
		if env.Lrack > 0 {
			p.EnableRackLevel(env.Lrack)
		}
		return p, nil
	})
	place.RegisterAlias("pmfirst", "pm-first")
}
