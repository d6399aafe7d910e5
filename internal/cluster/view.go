package cluster

// View is a read-only handle on a Cluster: the query surface placement
// policies choose allocations against. The engine hands placers the
// mutable *Cluster; every allocation-*choosing* helper (PackJob, the
// score-order walks in internal/core, ...) takes a View obtained with
// c.View(), so the compiler separates querying occupancy from mutating
// it — a View has no Allocate or Release.
//
// View is a concrete type, not an interface: its methods are one-line
// forwards that the compiler inlines into the placers' inner loops. It
// carries the queries those helpers ask: shape, occupancy answered from
// the incremental indexes in O(1), and the O(d) locality predicates
// MultiNode and MultiRack. Listings that allocate (FreeGPUs, GPUsOnNode)
// and the distinct counts the decision trace records (NodesSpanned,
// quadratic past 16 nodes) stay on *Cluster.
type View struct{ c *Cluster }

// View returns a read-only handle on the cluster.
func (c *Cluster) View() View { return View{c} }

// Topology returns the cluster's topology.
func (v View) Topology() Topology { return v.c.topo }

// Size returns the total number of GPUs.
func (v View) Size() int { return v.c.Size() }

// NumNodes returns the number of nodes.
func (v View) NumNodes() int { return v.c.topo.NumNodes }

// GPUsPerNode returns the number of GPUs per node.
func (v View) GPUsPerNode() int { return v.c.topo.GPUsPerNode }

// NumRacks returns the number of racks (1 without rack grouping).
func (v View) NumRacks() int { return v.c.NumRacks() }

// NodeOf returns the node hosting GPU g.
func (v View) NodeOf(g GPUID) NodeID { return v.c.node[g] }

// RackOf returns the rack hosting GPU g.
func (v View) RackOf(g GPUID) int { return v.c.RackOf(g) }

// NumFree returns the number of free GPUs.
func (v View) NumFree() int { return v.c.nfree }

// FreeOnNode returns the number of free GPUs on node n.
func (v View) FreeOnNode(n NodeID) int { return v.c.freeNode[n] }

// IsFree reports whether GPU g is free.
func (v View) IsFree(g GPUID) bool { return v.c.free[g] }

// MultiNode reports whether the GPU set spans more than one node.
func (v View) MultiNode(gpus []GPUID) bool { return v.c.MultiNode(gpus) }

// MultiRack reports whether the GPU set spans more than one rack.
func (v View) MultiRack(gpus []GPUID) bool { return v.c.MultiRack(gpus) }
