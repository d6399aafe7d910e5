package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mkJob(id int, arrival float64) *sim.Job {
	return &sim.Job{Spec: trace.JobSpec{ID: id, Arrival: arrival, Demand: 1, Work: 100},
		Remaining: 100}
}

func ids(jobs []*sim.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.Spec.ID
	}
	return out
}

func TestFIFOOrder(t *testing.T) {
	jobs := []*sim.Job{mkJob(2, 30), mkJob(0, 10), mkJob(1, 20)}
	got := ids(FIFO{}.Order(jobs, 100))
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreakByID(t *testing.T) {
	jobs := []*sim.Job{mkJob(5, 10), mkJob(3, 10)}
	got := ids(FIFO{}.Order(jobs, 100))
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("tie order = %v", got)
	}
}

func TestFIFODoesNotMutateInput(t *testing.T) {
	jobs := []*sim.Job{mkJob(2, 30), mkJob(0, 10)}
	FIFO{}.Order(jobs, 0)
	if jobs[0].Spec.ID != 2 {
		t.Error("Order mutated its input slice")
	}
}

func TestLASTwoLevelQueues(t *testing.T) {
	l := LAS{Threshold: 1000}
	fresh := mkJob(0, 50)   // attained 0 -> high queue
	veteran := mkJob(1, 10) // attained above threshold -> low queue
	veteran.Attained = 5000
	mid := mkJob(2, 5) // attained below threshold -> high queue
	mid.Attained = 500
	got := ids(l.Order([]*sim.Job{veteran, fresh, mid}, 100))
	// High queue ordered by attained: fresh (0) then mid (500); then low
	// queue: veteran.
	want := []int{0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LAS order = %v, want %v", got, want)
		}
	}
}

func TestLASFreshArrivalsPreempt(t *testing.T) {
	// The §V-C1 pattern: new jobs (zero attained service) beat running
	// jobs regardless of arrival order.
	l := LAS{}
	running := mkJob(0, 0)
	running.Attained = 3600
	newcomer := mkJob(1, 9999)
	got := ids(l.Order([]*sim.Job{running, newcomer}, 10000))
	if got[0] != 1 {
		t.Fatalf("newcomer should lead: %v", got)
	}
}

func TestLASDefaultThreshold(t *testing.T) {
	l := LAS{}
	below := mkJob(0, 100)
	below.Attained = DefaultLASThreshold - 1
	above := mkJob(1, 0)
	above.Attained = DefaultLASThreshold + 1
	got := ids(l.Order([]*sim.Job{above, below}, 200))
	if got[0] != 0 {
		t.Fatalf("below-threshold job should lead: %v", got)
	}
}

func TestSRTFOrder(t *testing.T) {
	long := mkJob(0, 0)
	long.Remaining = 5000
	short := mkJob(1, 50)
	short.Remaining = 10
	med := mkJob(2, 20)
	med.Remaining = 100
	got := ids(SRTF{}.Order([]*sim.Job{long, short, med}, 100))
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SRTF order = %v, want %v", got, want)
		}
	}
}

func TestSRTFTieBreak(t *testing.T) {
	a := mkJob(7, 5)
	b := mkJob(3, 5)
	a.Remaining, b.Remaining = 100, 100
	got := ids(SRTF{}.Order([]*sim.Job{a, b}, 10))
	if got[0] != 3 {
		t.Fatalf("tie order = %v", got)
	}
}

// TestOrderIsPermutationProperty: every scheduler must return a
// permutation of its input.
func TestOrderIsPermutationProperty(t *testing.T) {
	scheds := []sim.Scheduler{FIFO{}, LAS{}, SRTF{}}
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(40)
		jobs := make([]*sim.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, r.Float64()*1000)
			jobs[i].Attained = r.Float64() * 2 * DefaultLASThreshold
			jobs[i].Remaining = r.Float64() * 5000
		}
		for _, s := range scheds {
			got := s.Order(jobs, 1000)
			if len(got) != n {
				return false
			}
			seen := make([]bool, n)
			for _, j := range got {
				if seen[j.Spec.ID] {
					return false
				}
				seen[j.Spec.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuild(t *testing.T) {
	for _, name := range []string{"fifo", "las", "srtf"} {
		s, err := Build(name, nil)
		if err != nil {
			t.Errorf("Build(%q, nil): %v", name, err)
		} else if s.Name() != name {
			t.Errorf("Build(%q, nil) built %q", name, s.Name())
		}
	}
	if s, err := Build("nope", nil); err == nil {
		t.Errorf("unknown name built %v", s)
	}
}

func BenchmarkLASOrder1000(b *testing.B) {
	r := rng.New(1)
	jobs := make([]*sim.Job, 1000)
	for i := range jobs {
		jobs[i] = mkJob(i, r.Float64()*1e6)
		jobs[i].Attained = r.Float64() * 2 * DefaultLASThreshold
	}
	l := LAS{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Order(jobs, 1e6)
	}
}

func BenchmarkSRTFOrder1000(b *testing.B) {
	r := rng.New(2)
	jobs := make([]*sim.Job, 1000)
	for i := range jobs {
		jobs[i] = mkJob(i, r.Float64()*1e6)
		jobs[i].Remaining = r.Float64() * 1e5
	}
	s := SRTF{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Order(jobs, 1e6)
	}
}
