package experiments

import (
	"testing"
)

// goldenRunSpecKey pins RunSpec.Key() for the canonical Fig. 11 cell
// (Sia workload 1, PAL under FIFO, 64-GPU Longhorn cluster at the
// default penalties and seed). Every field of RunSpec feeds this hash —
// trace content, profile content, topology, scheduler, policy, penalty,
// seed, window, utilization recording — so silent drift in any of their
// encodings (the stale-cache bug class) fails here loudly. If you
// *deliberately* changed the encoding, a generator, or a seed constant:
// bump the version tag in RunSpec.Key and update the constant below in
// the same commit.
const goldenRunSpecKey = "2233753cd99081c2dd11af0bdc6d931411b147096220c2c72ec11993caa62202"

func TestGoldenRunSpecKey(t *testing.T) {
	spec := RunSpec{
		Trace:   SiaTrace(1),
		Topo:    SiaTopology(),
		Sched:   FIFOSched,
		Policy:  PALPolicy,
		Profile: LonghornProfile(64),
		Lacross: 1.5,
		Seed:    ExperimentSeed,
	}
	if got := spec.Key(); got != goldenRunSpecKey {
		t.Errorf("RunSpec key drifted:\n  got  %s\n  want %s\n"+
			"If this change is intentional, bump the version tag in RunSpec.Key and update goldenRunSpecKey.",
			got, goldenRunSpecKey)
	}

	// The golden value must also be sensitive: flipping the recording
	// flag has to move the key.
	spec.RecordUtil = true
	if spec.Key() == goldenRunSpecKey {
		t.Error("RecordUtil does not feed the cache key (stale-cache hazard)")
	}
}
