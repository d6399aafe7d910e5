package cluster

import (
	"testing"

	"repro/internal/rng"
)

// Property test for the incremental occupancy indexes: random
// Allocate/Release sequences over a spread of topologies must keep
// NumFree, FreeOnNode, FreeOnRack and FreeGPUs consistent with a
// from-scratch recount of the bitmap after every operation, and
// CheckInvariants must agree. Randomness derives from rng.Split
// sub-streams so every failure is reproducible from the printed seed.

// recount is the reference: per-node and per-rack free counts recomputed
// from the bitmap alone.
func recount(c *Cluster) (total int, node []int, rack []int) {
	node = make([]int, c.NumNodes())
	rack = make([]int, c.NumRacks())
	for g := 0; g < c.Size(); g++ {
		if c.IsFree(GPUID(g)) {
			total++
			node[c.NodeOf(GPUID(g))]++
			rack[c.RackOf(GPUID(g))]++
		}
	}
	return total, node, rack
}

func checkAgainstRecount(t *testing.T, c *Cluster, step int) {
	t.Helper()
	total, node, rack := recount(c)
	if c.NumFree() != total {
		t.Fatalf("step %d: NumFree=%d, recount=%d", step, c.NumFree(), total)
	}
	for n := range node {
		if got := c.FreeOnNode(NodeID(n)); got != node[n] {
			t.Fatalf("step %d: FreeOnNode(%d)=%d, recount=%d", step, n, got, node[n])
		}
	}
	for r := range rack {
		if got := c.FreeOnRack(r); got != rack[r] {
			t.Fatalf("step %d: FreeOnRack(%d)=%d, recount=%d", step, r, got, rack[r])
		}
	}
	free := c.FreeGPUs()
	if len(free) != total {
		t.Fatalf("step %d: FreeGPUs returned %d IDs, recount=%d", step, len(free), total)
	}
	for i, g := range free {
		if !c.IsFree(g) {
			t.Fatalf("step %d: FreeGPUs returned busy GPU %d", step, g)
		}
		if i > 0 && free[i-1] >= g {
			t.Fatalf("step %d: FreeGPUs not strictly ascending at index %d", step, i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// spannedRef counts distinct nodes/racks with maps, the reference the
// allocation-free implementations must match.
func spannedRef(c *Cluster, gpus []GPUID) (nodes, racks int) {
	ns := map[NodeID]struct{}{}
	rs := map[int]struct{}{}
	for _, g := range gpus {
		ns[c.NodeOf(g)] = struct{}{}
		rs[c.RackOf(g)] = struct{}{}
	}
	return len(ns), len(rs)
}

func TestOccupancyIndexesMatchRecount(t *testing.T) {
	topologies := []Topology{
		{NumNodes: 1, GPUsPerNode: 4},
		{NumNodes: 16, GPUsPerNode: 4},
		{NumNodes: 16, GPUsPerNode: 4, NodesPerRack: 4},
		{NumNodes: 13, GPUsPerNode: 3, NodesPerRack: 5}, // partial last rack
		{NumNodes: 104, GPUsPerNode: 4, NodesPerRack: 8},
		{NumNodes: 40, GPUsPerNode: 8, NodesPerRack: 3}, // >16 racks on wide allocs
	}
	root := rng.New(0xC10C)
	for ti, topo := range topologies {
		stream := root.Split(uint64(ti))
		c := New(topo)
		// held tracks live allocations: job ID -> GPUs.
		held := map[int][]GPUID{}
		heldIDs := []int{}
		nextJob := 0
		const steps = 2000
		for step := 0; step < steps; step++ {
			allocate := len(heldIDs) == 0 ||
				(c.NumFree() > 0 && stream.Float64() < 0.55)
			if allocate {
				want := 1 + stream.Intn(c.NumFree())
				if limit := topo.Size() / 2; want > limit && limit > 0 {
					want = limit
				}
				free := c.FreeGPUs()
				rng.Shuffle(stream, free)
				gpus := append([]GPUID(nil), free[:want]...)
				c.Allocate(nextJob, gpus)
				held[nextJob] = gpus
				heldIDs = append(heldIDs, nextJob)
				nextJob++

				wantNodes, wantRacks := spannedRef(c, gpus)
				if got := c.NodesSpanned(gpus); got != wantNodes {
					t.Fatalf("topo %d step %d: NodesSpanned=%d, reference=%d", ti, step, got, wantNodes)
				}
				if got := c.RacksSpanned(gpus); got != wantRacks {
					t.Fatalf("topo %d step %d: RacksSpanned=%d, reference=%d", ti, step, got, wantRacks)
				}
			} else {
				pick := stream.Intn(len(heldIDs))
				id := heldIDs[pick]
				c.Release(held[id])
				delete(held, id)
				heldIDs[pick] = heldIDs[len(heldIDs)-1]
				heldIDs = heldIDs[:len(heldIDs)-1]
			}
			// Recounting every step is O(Size); the topologies are small
			// enough that the full audit stays fast.
			checkAgainstRecount(t, c, step)
		}
		// Drain and confirm the indexes return to the pristine state.
		for _, id := range heldIDs {
			c.Release(held[id])
		}
		checkAgainstRecount(t, c, steps)
		if c.NumFree() != topo.Size() {
			t.Fatalf("topo %d: drained cluster has %d free, want %d", ti, c.NumFree(), topo.Size())
		}
	}
}

func TestResetRestoresIndexes(t *testing.T) {
	topo := Topology{NumNodes: 6, GPUsPerNode: 4, NodesPerRack: 4}
	c := New(topo)
	c.Allocate(1, []GPUID{0, 1, 5, 9, 23})
	c.Reset()
	checkAgainstRecount(t, c, 0)
	if c.NumFree() != topo.Size() {
		t.Fatalf("Reset left %d free, want %d", c.NumFree(), topo.Size())
	}
}

// TestMultiSpanMatchesSpanned: the O(d) locality predicates agree with
// the distinct counts on random GPU sets — the empty set, single GPUs,
// sets inside one node or rack, and scattered sets spanning more than
// 16 nodes (NodesSpanned's slow path) — over topologies with and
// without rack grouping, including a partial last rack and a rack
// grouping wider than the cluster.
func TestMultiSpanMatchesSpanned(t *testing.T) {
	topologies := []Topology{
		{NumNodes: 1, GPUsPerNode: 4},
		{NumNodes: 64, GPUsPerNode: 4},
		{NumNodes: 64, GPUsPerNode: 4, NodesPerRack: 4},
		{NumNodes: 13, GPUsPerNode: 3, NodesPerRack: 5},
		{NumNodes: 8, GPUsPerNode: 2, NodesPerRack: 16},
		{NumNodes: 104, GPUsPerNode: 8, NodesPerRack: 2},
	}
	root := rng.New(0x5BA7)
	wide := 0 // sets past NodesSpanned's 16-node stack buffer
	for ti, topo := range topologies {
		stream := root.Split(uint64(ti))
		c := New(topo)
		check := func(gpus []GPUID) {
			t.Helper()
			nodes, racks := c.NodesSpanned(gpus), c.RacksSpanned(gpus)
			if nodes > 16 {
				wide++
			}
			if got := c.MultiNode(gpus); got != (nodes > 1) {
				t.Fatalf("topo %d: MultiNode(%v) = %v, NodesSpanned = %d", ti, gpus, got, nodes)
			}
			if got := c.MultiRack(gpus); got != (racks > 1) {
				t.Fatalf("topo %d: MultiRack(%v) = %v, RacksSpanned = %d", ti, gpus, got, racks)
			}
			v := c.View()
			if v.MultiNode(gpus) != c.MultiNode(gpus) || v.MultiRack(gpus) != c.MultiRack(gpus) {
				t.Fatalf("topo %d: View disagrees with Cluster on %v", ti, gpus)
			}
		}
		check(nil)
		all := make([]GPUID, topo.Size())
		for g := range all {
			all[g] = GPUID(g)
		}
		check(all)
		for step := 0; step < 500; step++ {
			rng.Shuffle(stream, all)
			var gpus []GPUID
			switch step % 3 {
			case 0: // scattered: often wider than 16 nodes
				gpus = all[:1+stream.Intn(len(all))]
			case 1: // inside one node
				base := stream.Intn(topo.NumNodes) * topo.GPUsPerNode
				for i := 0; i <= stream.Intn(topo.GPUsPerNode); i++ {
					gpus = append(gpus, GPUID(base+i))
				}
			default: // inside one rack (or, ungrouped, anywhere)
				span := topo.Size()
				if topo.NodesPerRack > 0 {
					span = min(topo.NodesPerRack*topo.GPUsPerNode, topo.Size())
				}
				base := stream.Intn(topo.Size()/span) * span
				for i := 0; i < 1+stream.Intn(span); i++ {
					gpus = append(gpus, GPUID(base+stream.Intn(span)))
				}
			}
			check(gpus)
		}
	}
	if wide == 0 {
		t.Fatal("no set spanned more than 16 nodes; the slow path went unchecked")
	}
}
