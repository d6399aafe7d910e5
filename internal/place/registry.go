package place

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/vprof"
)

// Placement-policy registry. Placers, unlike schedulers, need
// construction-time context — a profiled PM-score view, locality
// penalties, an RNG seed — so builders receive a BuildEnv carrying
// everything any of the registered policies can need; each builder
// takes what applies to it. The four baselines register here; PM-First
// and PAL register from internal/core's init (core imports place, so
// the registration arrow points the same way as the type dependency).
// The experiments layer, the scenario layer and user extensions (e.g.
// examples/custompolicy) all construct placers through Build, which is
// what makes a policy named in a JSON scenario spec and a policy wired
// into a figure runner the same object.

// BuildEnv carries the construction context for a placement policy.
type BuildEnv struct {
	// Scores is the profiled (possibly stale) PM-score view that
	// variability-aware policies consult. Variability-agnostic baselines
	// ignore it; pm-first/pal fail without it.
	Scores vprof.BinnedScorer
	// Lacross is the inter-node locality penalty PAL's L×V matrix uses.
	Lacross float64
	// ModelLacross optionally overrides Lacross per model name.
	ModelLacross map[string]float64
	// Lrack, when positive, enables the three-level rack extension on
	// policies that support it.
	Lrack float64
	// Seed feeds policies that randomize (the Random and Packed
	// baselines' tie-breaking).
	Seed uint64
}

// Builder constructs a placement policy from its environment.
type Builder func(env BuildEnv) (sim.Placer, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
	aliases    = map[string]string{}
)

// Register adds a placer builder under the given canonical name,
// panicking on duplicates (registration is init-time; collisions are
// programming errors).
func Register(name string, build Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("place: duplicate registration of %q", name))
	}
	registry[name] = build
}

// RegisterAlias makes alias resolve to the canonical name in Build.
// The experiment tables label Packed-Sticky "tiresias" and
// Packed-Non-Sticky "gandiva" after the systems that deploy them; the
// aliases keep both vocabularies addressable.
func RegisterAlias(alias, canonical string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := aliases[alias]; dup {
		panic(fmt.Sprintf("place: duplicate alias %q", alias))
	}
	aliases[alias] = canonical
}

// Build constructs the named placement policy (canonical name or
// alias).
func Build(name string, env BuildEnv) (sim.Placer, error) {
	name = Canonical(name)
	registryMu.RLock()
	build, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("place: unknown placement policy %q (have %v)", name, Names())
	}
	return build(env)
}

// Canonical resolves an alias to its canonical policy name; any other
// name is returned unchanged.
func Canonical(name string) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if canonical, ok := aliases[name]; ok {
		return canonical
	}
	return name
}

// Names returns the canonical registered policy names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("random-sticky", func(env BuildEnv) (sim.Placer, error) {
		return NewRandom(true, env.Seed), nil
	})
	Register("random-non-sticky", func(env BuildEnv) (sim.Placer, error) {
		return NewRandom(false, env.Seed), nil
	})
	Register("packed-sticky", func(env BuildEnv) (sim.Placer, error) {
		return NewPacked(true, env.Seed), nil
	})
	Register("packed-non-sticky", func(env BuildEnv) (sim.Placer, error) {
		return NewPacked(false, env.Seed), nil
	})
	RegisterAlias("random", "random-non-sticky")
	RegisterAlias("tiresias", "packed-sticky")
	RegisterAlias("packed", "packed-sticky")
	RegisterAlias("gandiva", "packed-non-sticky")
}
