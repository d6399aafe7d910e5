package runner

import (
	"context"
	"hash/fnv"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Sweep accumulates a parameter grid of keyed tasks and executes it
// through a pool, returning results in the order the grid was
// enumerated. Experiments build their grids with ordinary nested loops
// (policy × load × penalty × trace × seed), adding one task per cell,
// then Run the whole sweep; the index handed back by AddTask is the
// cell's position in the results.
type Sweep struct {
	pool  *Pool
	tasks []Task
}

// NewSweep returns an empty sweep over the given pool.
func NewSweep(pool *Pool) *Sweep {
	return &Sweep{pool: pool}
}

// AddTask appends one task and returns its index in the sweep's
// results.
func (s *Sweep) AddTask(t Task) int {
	s.tasks = append(s.tasks, t)
	return len(s.tasks) - 1
}

// Run executes the sweep and returns the results in enumeration order.
func (s *Sweep) Run(ctx context.Context) ([]*sim.Result, error) {
	return s.pool.Run(ctx, s.tasks)
}

// DeriveSeed deterministically derives a per-run seed from a base
// experiment seed and a stable textual key, via rng.Split. Sweeps use it
// to give every grid cell an independent, reproducible RNG stream: the
// derived seed depends only on (base, key), never on enumeration order
// or worker assignment, which is what keeps an N-worker sweep
// bit-identical to a serial one.
func DeriveSeed(base uint64, key string) uint64 {
	// FNV-1a folds the key to a 64-bit label; Split mixes the label into
	// the base seed's stream without perturbing adjacent labels.
	return rng.New(base).Split(fnv1a(key)).Uint64()
}

// ShardOf deterministically assigns a cache key to one of n shards:
// FNV-1a over the key bytes, reduced mod n. The assignment is a pure
// function of the key's content — never of enumeration order, worker
// count or platform — so n independent processes enumerating the same
// grid partition it identically without coordination: each runs the
// cells whose ShardOf equals its own index and every cell lands in
// exactly one shard. n <= 1 means unsharded (everything is shard 0).
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a(key) % uint64(n))
}

// fnv1a is the 64-bit FNV-1a hash of key.
func fnv1a(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) // a hash.Hash's Write never returns an error
	return h.Sum64()
}
