package cluster

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func testTopo() Topology { return Topology{NumNodes: 4, GPUsPerNode: 4} }

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		topo Topology
		ok   bool
	}{
		{Topology{NumNodes: 1, GPUsPerNode: 1}, true},
		{Topology{NumNodes: 16, GPUsPerNode: 4, NodesPerRack: 8}, true},
		{Topology{NumNodes: 0, GPUsPerNode: 4}, false},
		{Topology{NumNodes: 4, GPUsPerNode: 0}, false},
		{Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: -1}, false},
	}
	for _, c := range cases {
		err := c.topo.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, ok=%v", c.topo, err, c.ok)
		}
	}
}

func TestTopologySize(t *testing.T) {
	if got := testTopo().Size(); got != 16 {
		t.Errorf("Size = %d, want 16", got)
	}
}

func TestNewAllFree(t *testing.T) {
	c := New(testTopo())
	if c.NumFree() != 16 {
		t.Errorf("NumFree = %d", c.NumFree())
	}
	if len(c.FreeGPUs()) != 16 {
		t.Errorf("FreeGPUs len = %d", len(c.FreeGPUs()))
	}
	for g := 0; g < 16; g++ {
		if !c.IsFree(GPUID(g)) || c.Owner(GPUID(g)) != -1 {
			t.Errorf("GPU %d not free/unowned at start", g)
		}
	}
}

func TestNodeOf(t *testing.T) {
	c := New(testTopo())
	cases := map[GPUID]NodeID{0: 0, 3: 0, 4: 1, 15: 3}
	for g, want := range cases {
		if got := c.NodeOf(g); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", g, got, want)
		}
	}
}

func TestRackOf(t *testing.T) {
	c := New(Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: 2})
	if c.RackOf(0) != 0 || c.RackOf(7) != 0 {
		t.Error("GPUs 0-7 should be rack 0")
	}
	if c.RackOf(8) != 1 || c.RackOf(15) != 1 {
		t.Error("GPUs 8-15 should be rack 1")
	}
	flat := New(testTopo())
	if flat.RackOf(15) != 0 {
		t.Error("no rack grouping should mean rack 0 everywhere")
	}
}

func TestGPUsOnNode(t *testing.T) {
	c := New(testTopo())
	got := c.GPUsOnNode(2)
	want := []GPUID{8, 9, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GPUsOnNode(2) = %v, want %v", got, want)
		}
	}
}

func TestAllocateRelease(t *testing.T) {
	c := New(testTopo())
	c.Allocate(7, []GPUID{1, 5, 9})
	if c.NumFree() != 13 {
		t.Errorf("NumFree after alloc = %d", c.NumFree())
	}
	if c.Owner(5) != 7 || c.IsFree(5) {
		t.Error("GPU 5 should be owned by job 7")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release([]GPUID{1, 5, 9})
	if c.NumFree() != 16 {
		t.Errorf("NumFree after release = %d", c.NumFree())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleAllocatePanics(t *testing.T) {
	c := New(testTopo())
	c.Allocate(1, []GPUID{0})
	defer func() {
		if recover() == nil {
			t.Fatal("double allocation did not panic")
		}
	}()
	c.Allocate(2, []GPUID{0})
}

func TestDoubleReleasePanics(t *testing.T) {
	c := New(testTopo())
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	c.Release([]GPUID{0})
}

// TestClaim drives the engine's one-pass check-and-commit: a rejected
// claim names the first GPU that is out of range, repeated or busy, and
// leaves the cluster exactly as it found it — bitmap, owners and both
// counts; a valid claim commits like Allocate.
func TestClaim(t *testing.T) {
	topo := Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: 2}
	c := New(topo)
	c.Allocate(7, []GPUID{2, 9})
	type state struct {
		free     []bool
		owner    []int
		nfree    int
		freeNode []int
	}
	snap := func() state {
		return state{slices.Clone(c.free), slices.Clone(c.owner), c.nfree, slices.Clone(c.freeNode)}
	}
	before := snap()
	rejected := []struct {
		gpus []GPUID
		bad  int
	}{
		{[]GPUID{-1}, 0},
		{[]GPUID{0, 1, 16}, 2},   // one past the end
		{[]GPUID{0, 1, 1000}, 2}, // far out of range
		{[]GPUID{0, 5, 0}, 2},    // repeated
		{[]GPUID{3, 3}, 1},       // repeated at once
		{[]GPUID{0, 1, 2, 3}, 2}, // busy, owned by job 7
		{[]GPUID{9}, 0},          // busy first
		{[]GPUID{4, 5, 6, 7, 9}, 4},
		{[]GPUID{0, 0, 2}, 1}, // the repeat comes before the busy GPU
	}
	for _, tc := range rejected {
		if got := c.Claim(1, tc.gpus); got != tc.bad {
			t.Errorf("Claim(%v) = %d, want %d", tc.gpus, got, tc.bad)
		}
		if after := snap(); !reflect.DeepEqual(after, before) {
			t.Errorf("Claim(%v) rejected but changed the cluster: %+v, was %+v", tc.gpus, after, before)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("Claim(%v): %v", tc.gpus, err)
		}
	}

	want := []GPUID{0, 5, 15, 8}
	if got := c.Claim(3, want); got != -1 {
		t.Fatalf("valid Claim(%v) = %d, want -1", want, got)
	}
	for _, g := range want {
		if c.IsFree(g) || c.Owner(g) != 3 {
			t.Errorf("GPU %d: free %v, owner %d after the claim, want job 3", g, c.IsFree(g), c.Owner(g))
		}
	}
	if c.NumFree() != before.nfree-len(want) || c.FreeOnNode(0) != 2 {
		t.Errorf("counts after the claim: %d free, node 0 %d", c.NumFree(), c.FreeOnNode(0))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(want)
	if after := snap(); !reflect.DeepEqual(after, before) {
		t.Errorf("release after the claim did not restore the cluster")
	}
}

func TestAllocateAtomicOnPanic(t *testing.T) {
	c := New(testTopo())
	c.Allocate(1, []GPUID{2})
	func() {
		defer func() { recover() }()
		c.Allocate(2, []GPUID{0, 1, 2}) // 2 is busy: must not partially allocate
	}()
	if !c.IsFree(0) || !c.IsFree(1) {
		t.Error("failed allocation partially committed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeOnNode(t *testing.T) {
	c := New(testTopo())
	c.Allocate(1, []GPUID{4, 5})
	if got := c.FreeOnNode(1); got != 2 {
		t.Errorf("FreeOnNode(1) = %d, want 2", got)
	}
	if got := c.FreeOnNode(0); got != 4 {
		t.Errorf("FreeOnNode(0) = %d, want 4", got)
	}
}

func TestNodesSpanned(t *testing.T) {
	c := New(testTopo())
	cases := []struct {
		gpus []GPUID
		want int
	}{
		{nil, 0},
		{[]GPUID{0, 1, 2, 3}, 1},
		{[]GPUID{0, 4}, 2},
		{[]GPUID{0, 5, 10, 15}, 4},
	}
	for _, cse := range cases {
		if got := c.NodesSpanned(cse.gpus); got != cse.want {
			t.Errorf("NodesSpanned(%v) = %d, want %d", cse.gpus, got, cse.want)
		}
	}
}

func TestRacksSpanned(t *testing.T) {
	c := New(Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: 2})
	if got := c.RacksSpanned([]GPUID{0, 7}); got != 1 {
		t.Errorf("RacksSpanned same rack = %d", got)
	}
	if got := c.RacksSpanned([]GPUID{0, 8}); got != 2 {
		t.Errorf("RacksSpanned cross rack = %d", got)
	}
	if got := c.RacksSpanned(nil); got != 0 {
		t.Errorf("RacksSpanned(nil) = %d", got)
	}
}

func TestReset(t *testing.T) {
	c := New(testTopo())
	c.Allocate(3, []GPUID{0, 1})
	c.Reset()
	if c.NumFree() != 16 || c.Owner(0) != -1 {
		t.Error("Reset did not free everything")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationSequenceProperty drives random allocate/release sequences
// and checks the cluster invariants after every step.
func TestAllocationSequenceProperty(t *testing.T) {
	check := func(ops []uint8) bool {
		c := New(testTopo())
		held := map[int][]GPUID{}
		nextJob := 0
		for _, op := range ops {
			if op%2 == 0 {
				// Allocate 1-4 GPUs if available.
				want := int(op/2)%4 + 1
				free := c.FreeGPUs()
				if len(free) < want {
					continue
				}
				c.Allocate(nextJob, free[:want])
				held[nextJob] = free[:want]
				nextJob++
			} else {
				for id, gpus := range held {
					c.Release(gpus)
					delete(held, id)
					break
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violation: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
