package scenario

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
)

// GridSpec is the optional cross-product block of a scenario spec: each
// populated axis lists explicit values for one spec field, and the spec
// expands into one cell per element of the cross product. Expansion is
// deterministic and part of the contract: axes vary in the order they
// are declared below (struct order, the same order Canonical serializes
// them), values stay in listed order, and the cross product is
// enumerated row-major with the last populated axis varying fastest —
// so every process that parses the same grid enumerates the same cells
// in the same order, which is what lets sharded sweeps partition a grid
// by content hash without coordination.
//
// A grid-bearing spec is a generator, not a runnable configuration: its
// base fields stay un-normalized (defaults are applied per cell, after
// the axis overrides, so cross-field defaults like the synthetic
// workload seed following the root seed are computed from each cell's
// values), Build rejects it, and ExpandGrid turns it into ordinary
// per-cell specs that canonicalize, validate and cache-key exactly like
// hand-written ones.
type GridSpec struct {
	// Seeds varies the root determinism seed (Spec.Seed).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Nodes varies the cluster's node count (Cluster.Nodes).
	Nodes []int `json:"nodes,omitempty"`
	// GPUsPerNode varies the per-node GPU count (Cluster.GPUsPerNode).
	GPUsPerNode []int `json:"gpus_per_node,omitempty"`
	// Policies varies the placement policy by registered name
	// (Policy.Name).
	Policies []string `json:"policies,omitempty"`
	// Scheds varies the scheduling policy by registered name
	// (Sched.Name).
	Scheds []string `json:"scheds,omitempty"`
	// JobsPerHour varies the mean arrival rate (Workload.JobsPerHour;
	// synergy and synthetic sources).
	JobsPerHour []float64 `json:"jobs_per_hour,omitempty"`
	// NumJobs varies the trace length (Workload.NumJobs).
	NumJobs []int `json:"num_jobs,omitempty"`
	// Arrivals varies the synthetic arrival process (Workload.Arrivals).
	Arrivals []string `json:"arrivals,omitempty"`
}

// axisValue is one concrete value of one grid axis: a canonical label
// (used in cell names, duplicate detection and error messages) plus the
// override it applies to a cell.
type axisValue struct {
	label string
	apply func(*Spec)
}

// gridAxis is one populated axis of a grid: the JSON field name for
// error messages, the short tag used in expanded cell names, and the
// values in listed order.
type gridAxis struct {
	field  string
	tag    string
	values []axisValue
}

// axes returns the grid's populated axes in canonical expansion order
// (struct order). An axis given as an explicit empty list is returned
// with zero values so validation can reject it — a spec author writing
// "policies": [] almost certainly meant to list something.
func (g *GridSpec) axes() []gridAxis {
	var axes []gridAxis
	add := func(field, tag string, n int, value func(i int) axisValue) {
		vals := make([]axisValue, n)
		for i := range vals {
			vals[i] = value(i)
		}
		axes = append(axes, gridAxis{field: field, tag: tag, values: vals})
	}
	if g.Seeds != nil {
		add("seeds", "seed", len(g.Seeds), func(i int) axisValue {
			v := g.Seeds[i]
			return axisValue{strconv.FormatUint(v, 10), func(s *Spec) { s.Seed = v }}
		})
	}
	if g.Nodes != nil {
		add("nodes", "nodes", len(g.Nodes), func(i int) axisValue {
			v := g.Nodes[i]
			return axisValue{strconv.Itoa(v), func(s *Spec) { s.Cluster.Nodes = v }}
		})
	}
	if g.GPUsPerNode != nil {
		add("gpus_per_node", "gpus", len(g.GPUsPerNode), func(i int) axisValue {
			v := g.GPUsPerNode[i]
			return axisValue{strconv.Itoa(v), func(s *Spec) { s.Cluster.GPUsPerNode = v }}
		})
	}
	if g.Policies != nil {
		add("policies", "policy", len(g.Policies), func(i int) axisValue {
			v := g.Policies[i]
			return axisValue{v, func(s *Spec) { s.Policy.Name = v }}
		})
	}
	if g.Scheds != nil {
		add("scheds", "sched", len(g.Scheds), func(i int) axisValue {
			v := g.Scheds[i]
			return axisValue{v, func(s *Spec) { s.Sched.Name = v }}
		})
	}
	if g.JobsPerHour != nil {
		add("jobs_per_hour", "jph", len(g.JobsPerHour), func(i int) axisValue {
			v := g.JobsPerHour[i]
			return axisValue{strconv.FormatFloat(v, 'g', -1, 64), func(s *Spec) { s.Workload.JobsPerHour = v }}
		})
	}
	if g.NumJobs != nil {
		add("num_jobs", "jobs", len(g.NumJobs), func(i int) axisValue {
			v := g.NumJobs[i]
			return axisValue{strconv.Itoa(v), func(s *Spec) { s.Workload.NumJobs = v }}
		})
	}
	if g.Arrivals != nil {
		add("arrivals", "arrivals", len(g.Arrivals), func(i int) axisValue {
			v := g.Arrivals[i]
			return axisValue{v, func(s *Spec) { s.Workload.Arrivals = v }}
		})
	}
	return axes
}

// validate checks the axis lists themselves. Zero-ish values (seed 0,
// empty strings, non-positive counts and rates) are rejected even
// though normalize would replace them with defaults: an axis value that
// means "the default" can silently alias the cell produced by listing
// the default explicitly, the same bug class the duplicate checks
// catch.
func (g *GridSpec) validate(name string) error {
	for _, v := range g.Seeds {
		if v == 0 {
			return fmt.Errorf("scenario %s: grid seeds value 0, want >= 1 (0 selects the default seed and can alias another cell)", name)
		}
	}
	for _, v := range g.Nodes {
		if v <= 0 {
			return fmt.Errorf("scenario %s: grid nodes value %d, want >= 1", name, v)
		}
	}
	for _, v := range g.GPUsPerNode {
		if v <= 0 {
			return fmt.Errorf("scenario %s: grid gpus_per_node value %d, want >= 1", name, v)
		}
	}
	for _, v := range g.Policies {
		if v == "" {
			return fmt.Errorf("scenario %s: grid policies value \"\", want a registered placement-policy name", name)
		}
	}
	for _, v := range g.Scheds {
		if v == "" {
			return fmt.Errorf("scenario %s: grid scheds value \"\", want a registered scheduling-policy name", name)
		}
	}
	for _, v := range g.JobsPerHour {
		if v <= 0 {
			return fmt.Errorf("scenario %s: grid jobs_per_hour value %g, want > 0", name, v)
		}
	}
	for _, v := range g.NumJobs {
		if v <= 0 {
			return fmt.Errorf("scenario %s: grid num_jobs value %d, want >= 1", name, v)
		}
	}
	for _, v := range g.Arrivals {
		if v == "" {
			return fmt.Errorf("scenario %s: grid arrivals value \"\", want poisson, bursty or diurnal", name)
		}
	}
	axes := g.axes()
	if len(axes) == 0 {
		return fmt.Errorf("scenario %s: grid block has no axes (want at least one of seeds, nodes, gpus_per_node, policies, scheds, jobs_per_hour, num_jobs, arrivals — or drop the block)", name)
	}
	for _, ax := range axes {
		if len(ax.values) == 0 {
			return fmt.Errorf("scenario %s: grid axis %s is empty (want >= 1 value, or omit the axis)", name, ax.field)
		}
		seen := make(map[string]bool, len(ax.values))
		for _, v := range ax.values {
			if seen[v.label] {
				return fmt.Errorf("scenario %s: grid axis %s repeats value %s (values must be distinct)", name, ax.field, v.label)
			}
			seen[v.label] = true
		}
	}
	return nil
}

// validateGrid checks a grid-bearing spec by validating the axis lists
// and then dry-running the expansion, which normalizes and validates
// every cell (cheap: no trace or profile is built). The base spec's
// scalar fields are deliberately not checked directly — a grid base
// stays un-normalized, so zero-valued fields meaning "default" are
// expected there and only the expanded cells must be valid.
func (s *Spec) validateGrid() error {
	_, err := s.ExpandGrid()
	return err
}

// ExpandGrid expands the spec's grid block into its cells: one
// ordinary, fully normalized and validated per-cell Spec per element of
// the cross product, in the deterministic order documented on GridSpec.
// A spec without a grid block is its own single cell. Cell names append
// "@tag=value,..." to the base name (one tag per populated axis), so
// every cell is addressable in tables and archive file names.
func (s *Spec) ExpandGrid() ([]*Spec, error) {
	if s.Grid == nil {
		return []*Spec{s}, nil
	}
	if err := s.Grid.validate(s.Name); err != nil {
		return nil, err
	}
	return s.expandCells(s.Grid.axes())
}

// expandCells enumerates the cross product of the given axes over the
// base spec. Each cell is a deep copy of the un-normalized base with
// the axis overrides applied, then normalized and validated — so
// cross-field defaults are computed from the cell's own values. Two
// cells that normalize to the same configuration (identical canonical
// bytes once the name is set aside) would silently share one cache key,
// so expansion rejects the collision instead.
func (s *Spec) expandCells(axes []gridAxis) ([]*Spec, error) {
	total := 1
	for _, ax := range axes {
		total *= len(ax.values)
	}
	cells := make([]*Spec, 0, total)
	seen := make(map[string]string, total) // canonical bytes (name neutralized) -> cell name
	idx := make([]int, len(axes))
	for {
		cell := s.clone()
		cell.Grid = nil
		tags := make([]string, len(axes))
		for ai, ax := range axes {
			v := ax.values[idx[ai]]
			v.apply(cell)
			tags[ai] = ax.tag + "=" + v.label
		}
		cell.Name = s.Name + "@" + strings.Join(tags, ",")
		cell.normalize()
		if err := cell.Validate(); err != nil {
			return nil, fmt.Errorf("grid cell %d of %d: %w", len(cells)+1, total, err)
		}
		probe := *cell
		probe.Name = s.Name
		canon, err := probe.Canonical()
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[string(canon)]; dup {
			return nil, fmt.Errorf("scenario %s: grid cells %s and %s normalize to the same configuration (they would share one cache key; make the axis values distinct after defaulting)",
				s.Name, prev, cell.Name)
		}
		seen[string(canon)] = cell.Name
		cells = append(cells, cell)
		// Odometer increment, last axis fastest.
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return cells, nil
		}
	}
}

// clone returns a deep copy of the spec: expanded cells must not share
// mutable slices or maps with the base or with each other, since each
// cell is normalized (and possibly further mutated by callers)
// independently.
func (s *Spec) clone() *Spec {
	c := *s
	c.Policy.Params = maps.Clone(s.Policy.Params)
	c.Sched.Params = maps.Clone(s.Sched.Params)
	c.Workload.Demands = append([]int(nil), s.Workload.Demands...)
	c.Workload.DemandWeights = append([]float64(nil), s.Workload.DemandWeights...)
	c.Metrics.Series = append([]string(nil), s.Metrics.Series...)
	c.Decisions.Record = append([]string(nil), s.Decisions.Record...)
	if s.Fork != nil {
		f := *s.Fork
		c.Fork = &f
	}
	if s.Profile.Stale != nil {
		st := *s.Profile.Stale
		c.Profile.Stale = &st
	}
	return &c
}
