// Package cluster models the GPU cluster that the scheduler allocates
// from: a two-level topology of nodes each holding a fixed number of GPUs,
// plus the free/busy allocation state the placement policies manipulate.
//
// The model matches the systems the paper evaluates on (TACC Frontera and
// Longhorn: 4 GPUs per node, flat fat-tree interconnect). Following the
// paper's simplified locality model (§III-C1), a job suffers no locality
// penalty if its allocation fits within one node and a constant penalty
// L_across if it spans nodes. An optional rack level is supported as an
// extension for deeper L×V matrices.
//
// Occupancy is indexed incrementally: Allocate, Release and Claim
// maintain a free-GPU count per node alongside the flat bitmap, so the
// occupancy queries the placement policies issue every round — NumFree,
// FreeOnNode, and the busy-node skip inside FreeGPUs — cost O(1) per
// node instead of rescanning the whole cluster; no per-rack index is
// kept. A per-GPU node table answers NodeOf with a load
// instead of a division, for the per-GPU bookkeeping in Claim, Release
// and Allocate and for the placers' own counts. Placers choose
// allocations through the read-only View handle and hold their round's
// tentative picks in scratch of their own; only the engine writes the
// cluster. A non-sticky round re-places every job it keeps running, so
// the engine frees the whole cluster with one Reset rather than one
// Release per job.
package cluster

import (
	"fmt"
	"slices"
)

// GPUID identifies a GPU within a cluster; IDs are dense in [0, Size).
type GPUID int

// NodeID identifies a node within a cluster; IDs are dense in [0, NumNodes).
type NodeID int

// Topology describes the shape of a cluster.
type Topology struct {
	NumNodes     int // number of nodes
	GPUsPerNode  int // identical GPUs per node
	NodesPerRack int // optional rack grouping; 0 or >= NumNodes means a single rack
}

// Size returns the total number of GPUs described by the topology.
func (t Topology) Size() int { return t.NumNodes * t.GPUsPerNode }

// NumRacks returns the number of racks the topology groups its nodes
// into (1 when no rack grouping is configured).
func (t Topology) NumRacks() int {
	if t.NodesPerRack <= 0 {
		return 1
	}
	return (t.NumNodes + t.NodesPerRack - 1) / t.NodesPerRack
}

// Validate reports whether the topology is well formed.
func (t Topology) Validate() error {
	if t.NumNodes <= 0 {
		return fmt.Errorf("cluster: NumNodes must be positive, got %d", t.NumNodes)
	}
	if t.GPUsPerNode <= 0 {
		return fmt.Errorf("cluster: GPUsPerNode must be positive, got %d", t.GPUsPerNode)
	}
	if t.NodesPerRack < 0 {
		return fmt.Errorf("cluster: NodesPerRack must be non-negative, got %d", t.NodesPerRack)
	}
	return nil
}

// Cluster is the allocatable state of a GPU cluster. It tracks which GPUs
// are free and which job owns each busy GPU, plus incrementally-maintained
// free counts per node. Cluster is not safe for concurrent
// use; the round-based engine drives it from a single goroutine.
type Cluster struct {
	topo  Topology
	free  []bool // free[g] reports whether GPU g is unallocated
	owner []int  // owner[g] is the job ID holding GPU g, or -1
	nfree int
	node  []NodeID // node[g] is the node hosting GPU g (static)

	// Occupancy index, updated on every Allocate/Release/Claim.
	freeNode []int // freeNode[n] counts free GPUs on node n
}

// New creates a cluster with the given topology, all GPUs free.
// It panics if the topology is invalid (a programming error, not an input
// error: topologies are fixed in experiment configs).
func New(topo Topology) *Cluster {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	n := topo.Size()
	c := &Cluster{
		topo:     topo,
		free:     make([]bool, n),
		owner:    make([]int, n),
		nfree:    n,
		node:     make([]NodeID, n),
		freeNode: make([]int, topo.NumNodes),
	}
	for i := range c.free {
		c.free[i] = true
		c.owner[i] = -1
		c.node[i] = NodeID(i / topo.GPUsPerNode)
	}
	for n := range c.freeNode {
		c.freeNode[n] = topo.GPUsPerNode
	}
	return c
}

// Topology returns the cluster's topology.
func (c *Cluster) Topology() Topology { return c.topo }

// Size returns the total number of GPUs.
func (c *Cluster) Size() int { return len(c.free) }

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return c.topo.NumNodes }

// GPUsPerNode returns the number of GPUs per node.
func (c *Cluster) GPUsPerNode() int { return c.topo.GPUsPerNode }

// NumRacks returns the number of racks (1 when no rack grouping is
// configured).
func (c *Cluster) NumRacks() int { return c.topo.NumRacks() }

// NodeOf returns the node hosting GPU g, read from the node table.
func (c *Cluster) NodeOf(g GPUID) NodeID { return c.node[g] }

// RackOf returns the rack hosting GPU g. With no rack grouping configured
// every GPU is in rack 0.
func (c *Cluster) RackOf(g GPUID) int {
	if c.topo.NodesPerRack <= 0 {
		return 0
	}
	return int(c.NodeOf(g)) / c.topo.NodesPerRack
}

// GPUsOnNode returns the IDs of all GPUs on node n, in ascending order.
func (c *Cluster) GPUsOnNode(n NodeID) []GPUID {
	out := make([]GPUID, c.topo.GPUsPerNode)
	base := int(n) * c.topo.GPUsPerNode
	for i := range out {
		out[i] = GPUID(base + i)
	}
	return out
}

// NumFree returns the number of free GPUs.
func (c *Cluster) NumFree() int { return c.nfree }

// IsFree reports whether GPU g is free.
func (c *Cluster) IsFree(g GPUID) bool { return c.free[g] }

// Owner returns the job ID currently holding GPU g, or -1 if g is free.
func (c *Cluster) Owner(g GPUID) int { return c.owner[g] }

// FreeGPUs returns the IDs of all free GPUs in ascending order. The
// returned slice is freshly allocated; callers may reorder it. Fully-busy
// nodes are skipped via the per-node index, so the scan is bounded by
// NumNodes plus the free GPUs actually returned rather than cluster size.
func (c *Cluster) FreeGPUs() []GPUID {
	return c.AppendFreeGPUs(make([]GPUID, 0, c.nfree))
}

// AppendFreeGPUs appends the IDs of all free GPUs to out in ascending
// order (FreeGPUs' order) and returns the extended slice, so a caller
// that keeps a buffer across rounds lists the free set without
// allocating.
func (c *Cluster) AppendFreeGPUs(out []GPUID) []GPUID {
	per := c.topo.GPUsPerNode
	for n, nf := range c.freeNode {
		if nf == 0 {
			continue
		}
		base := n * per
		for i := 0; i < per; i++ {
			if c.free[base+i] {
				out = append(out, GPUID(base+i))
			}
		}
	}
	return out
}

// FreeOnNode returns the number of free GPUs on node n, answered from the
// incremental index.
func (c *Cluster) FreeOnNode(n NodeID) int { return c.freeNode[n] }

// Allocate marks the given GPUs as owned by job jobID. It panics if any
// GPU is already allocated: placement policies must only hand out free
// GPUs, and a violation indicates a policy bug rather than a recoverable
// condition.
func (c *Cluster) Allocate(jobID int, gpus []GPUID) {
	for _, g := range gpus {
		if !c.free[g] {
			panic(fmt.Sprintf("cluster: GPU %d already allocated to job %d (allocating for job %d)",
				g, c.owner[g], jobID))
		}
	}
	for _, g := range gpus {
		c.free[g] = false
		c.owner[g] = jobID
		c.nfree--
		c.freeNode[c.node[g]]--
	}
}

// Claim checks and commits an allocation in one pass: it marks each GPU
// of gpus as owned by jobID and returns -1, unless some GPU is out of
// range or not free — already owned, or repeated earlier in gpus. Then
// it releases what it claimed so far, leaving the cluster exactly as it
// was, and returns the index in gpus of that first failing GPU. Unlike
// Allocate it never panics: the engine turns the index into an error
// naming the placer's fault.
func (c *Cluster) Claim(jobID int, gpus []GPUID) int {
	for i, g := range gpus {
		if g < 0 || int(g) >= len(c.free) || !c.free[g] {
			c.Release(gpus[:i])
			return i
		}
		c.free[g] = false
		c.owner[g] = jobID
		c.nfree--
		c.freeNode[c.node[g]]--
	}
	return -1
}

// Release frees the given GPUs. It panics if any GPU is already free,
// which would indicate double-release in the engine.
func (c *Cluster) Release(gpus []GPUID) {
	for _, g := range gpus {
		if c.free[g] {
			panic(fmt.Sprintf("cluster: GPU %d released twice", g))
		}
	}
	for _, g := range gpus {
		c.free[g] = true
		c.owner[g] = -1
		c.nfree++
		c.freeNode[c.node[g]]++
	}
}

// MultiNode reports whether the GPU set spans more than one node — the
// locality model's only question (it charges L_across exactly then). It
// compares every GPU's node-table entry with the first GPU's:
// O(len(gpus)), no division, and equal to NodesSpanned(gpus) > 1.
func (c *Cluster) MultiNode(gpus []GPUID) bool {
	if len(gpus) == 0 {
		return false
	}
	n := c.node[gpus[0]]
	for _, g := range gpus[1:] {
		if c.node[g] != n {
			return true
		}
	}
	return false
}

// MultiRack reports whether the GPU set spans more than one rack, in
// O(len(gpus)) like MultiNode; it equals RacksSpanned(gpus) > 1. Without
// rack grouping every GPU shares rack 0, so it is always false.
func (c *Cluster) MultiRack(gpus []GPUID) bool {
	if c.topo.NodesPerRack <= 0 {
		return false
	}
	return spansBlocks(gpus, c.topo.NodesPerRack*c.topo.GPUsPerNode)
}

// NodesSpanned returns the number of distinct nodes covered by the given
// GPU set; the decision trace records it. The locality model asks only
// whether it exceeds 1, which MultiNode answers in linear time.
func (c *Cluster) NodesSpanned(gpus []GPUID) int {
	return countBlocks(gpus, c.topo.GPUsPerNode)
}

// RacksSpanned returns the number of distinct racks covered by the given
// GPU set (extension for three-level locality; the decision trace
// records it, MultiRack answers RacksSpanned > 1). Without rack grouping
// every GPU shares rack 0.
func (c *Cluster) RacksSpanned(gpus []GPUID) int {
	if c.topo.NodesPerRack <= 0 {
		return min(len(gpus), 1)
	}
	return countBlocks(gpus, c.topo.NodesPerRack*c.topo.GPUsPerNode)
}

// spansBlocks reports whether gpus fall in more than one of the aligned
// ID blocks of the given size (a node's or a rack's GPUs are one block:
// IDs are laid out node-major).
func spansBlocks(gpus []GPUID, size int) bool {
	if len(gpus) == 0 {
		return false
	}
	lo := GPUID(int(gpus[0]) / size * size)
	hi := lo + GPUID(size)
	for _, g := range gpus[1:] {
		if g < lo || g >= hi {
			return true
		}
	}
	return false
}

// countBlocks returns the number of distinct aligned ID blocks of the
// given size that gpus fall in, allocation-free: the first 16 distinct
// blocks are tracked in a stack buffer, and past that a GPU whose block
// is not in it is compared with every earlier GPU (quadratic in the
// set's size, only for sets that wide).
func countBlocks(gpus []GPUID, size int) int {
	var buf [16]int
	seen := buf[:0]
	count := 0
	for i, g := range gpus {
		b := int(g) / size
		if slices.Contains(seen, b) {
			continue
		}
		if len(seen) < cap(seen) {
			seen = append(seen, b)
		} else if slices.ContainsFunc(gpus[:i], func(h GPUID) bool { return int(h)/size == b }) {
			continue
		}
		count++
	}
	return count
}

// Reset frees every GPU, returning the cluster to its initial state.
// The engine calls it once per non-sticky placement round, so it fills
// the arrays with doubling copies, which run as memmove instead of one
// store per GPU.
func (c *Cluster) Reset() {
	fill(c.free, true)
	fill(c.owner, -1)
	c.nfree = len(c.free)
	fill(c.freeNode, c.topo.GPUsPerNode)
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// CheckInvariants verifies internal consistency: the total free count and
// the per-node occupancy index both match a from-scratch
// recount of the free bitmap, and owners are -1 exactly on free GPUs.
// The recount derives each GPU's node from its ID, not from the node
// table the index updates read, so a wrong table shows here. It
// is used by tests and the engine's end-of-run audit and returns an error
// describing the first violation found.
func (c *Cluster) CheckInvariants() error {
	count := 0
	nodeCount := make([]int, c.topo.NumNodes)
	for g, f := range c.free {
		if f {
			count++
			nodeCount[g/c.topo.GPUsPerNode]++
			if c.owner[g] != -1 {
				return fmt.Errorf("cluster: free GPU %d has owner %d", g, c.owner[g])
			}
		} else if c.owner[g] < 0 {
			return fmt.Errorf("cluster: busy GPU %d has no owner", g)
		}
	}
	if count != c.nfree {
		return fmt.Errorf("cluster: free count %d != bitmap count %d", c.nfree, count)
	}
	for n, want := range nodeCount {
		if c.freeNode[n] != want {
			return fmt.Errorf("cluster: node %d free index %d != bitmap count %d", n, c.freeNode[n], want)
		}
	}
	return nil
}
