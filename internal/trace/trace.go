// Package trace generates the ML workload traces the evaluation runs on.
//
// The paper uses two trace families derived from Microsoft's Philly
// production traces (§IV-B): Sia-Philly (8 traces of 160 jobs submitted
// over 8 hours at 20 jobs/hour, 40% single-GPU, largest jobs up to 48
// GPUs) and Synergy (Poisson arrivals at a configurable rate, >80%
// single-GPU, Philly GPU-demand distribution, evaluated at steady state on
// jobs 2000-3000). We cannot redistribute Philly, so seeded generators
// reproduce the published moments of both families, including the two
// trace idiosyncrasies the paper analyses: workload 5's early-arriving
// 48-GPU job (job ID ~19) and workload 3's late-arriving large jobs
// (after job ID ~60).
package trace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/vprof"
)

// JobSpec describes one job of a workload trace, before any scheduling.
type JobSpec struct {
	ID      int
	Model   string      // model name (Table II mix)
	Class   vprof.Class // variability class of the model
	Arrival float64     // arrival time, seconds from trace start
	Demand  int         // number of GPUs requested (gang-scheduled)
	Work    float64     // ideal work in seconds on median GPUs within one node
}

// Trace is an ordered list of jobs (ascending arrival).
type Trace struct {
	Name string
	Jobs []JobSpec
}

// TotalGPUSeconds returns the trace's total ideal demand in GPU-seconds,
// a quick load sanity check used by tests.
func (t *Trace) TotalGPUSeconds() float64 {
	var s float64
	for _, j := range t.Jobs {
		s += float64(float64(j.Demand) * j.Work)
	}
	return s
}

// MaxDemand returns the largest GPU demand in the trace.
func (t *Trace) MaxDemand() int {
	m := 0
	for _, j := range t.Jobs {
		if j.Demand > m {
			m = j.Demand
		}
	}
	return m
}

// SingleGPUFraction returns the fraction of jobs requesting exactly 1 GPU.
func (t *Trace) SingleGPUFraction() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range t.Jobs {
		if j.Demand == 1 {
			n++
		}
	}
	return float64(n) / float64(len(t.Jobs))
}

// Model is one entry of the workload model mix (Table II).
type Model struct {
	Name   string
	Class  vprof.Class
	Weight float64 // sampling weight in the mix
	// Lacross is the model-specific inter-node locality penalty the paper
	// estimates from its physical-cluster runs (§IV-D) and uses in the
	// Sia simulations.
	Lacross float64
}

// TableIIModels returns the six-model mix of the paper's real-cluster
// evaluation (Table II) with per-model locality penalties. Class
// assignments follow Table II (PointNet C; vgg19, DCGAN, ResNet-50 A;
// BERT, GPT2 B). The penalty values are our calibration (§IV-D notes the
// measured penalties are model-dependent and lower than the initial 1.7
// estimate); communication-heavy language models pay more when split
// across nodes.
func TableIIModels() []Model {
	return []Model{
		{Name: "pointnet", Class: vprof.ClassC, Weight: 0.15, Lacross: 1.05},
		{Name: "vgg19", Class: vprof.ClassA, Weight: 0.17, Lacross: 1.40},
		{Name: "dcgan", Class: vprof.ClassA, Weight: 0.15, Lacross: 1.25},
		{Name: "bert", Class: vprof.ClassB, Weight: 0.18, Lacross: 1.50},
		{Name: "resnet50", Class: vprof.ClassA, Weight: 0.20, Lacross: 1.30},
		{Name: "gpt2", Class: vprof.ClassB, Weight: 0.15, Lacross: 1.60},
	}
}

// LacrossByModel returns the per-model locality-penalty map used by the
// Sia-Philly experiments.
func LacrossByModel() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range TableIIModels() {
		out[m.Name] = m.Lacross
	}
	return out
}

// pickModel samples a model from the mix.
func pickModel(r *rng.RNG, models []Model) Model {
	weights := make([]float64, len(models))
	for i, m := range models {
		weights[i] = m.Weight
	}
	return models[r.Choice(weights)]
}

// sampleDuration draws an ideal-work duration (seconds) from a lognormal
// with the given median and sigma, clamped to [minSec, maxSec]. Heavy
// tails match the Philly duration distribution's shape.
func sampleDuration(r *rng.RNG, medianSec, sigma, minSec, maxSec float64) float64 {
	d := r.LogNormal(math.Log(medianSec), sigma)
	if d < minSec {
		d = minSec
	}
	if d > maxSec {
		d = maxSec
	}
	return d
}

// demandDist is a discrete GPU-demand distribution.
type demandDist struct {
	demands []int
	weights []float64
}

func (d demandDist) sample(r *rng.RNG) int {
	return d.demands[r.Choice(d.weights)]
}

// siaDemands is the Sia-Philly demand mix: 40% single-GPU, multi-GPU jobs
// up to 48 GPUs (§IV-B1).
var siaDemands = demandDist{
	demands: []int{1, 2, 4, 8, 16, 32, 48},
	weights: []float64{0.40, 0.20, 0.15, 0.12, 0.06, 0.04, 0.03},
}

// synergyDemands preserves the Philly demand distribution with >80%
// single-GPU jobs (§IV-B1).
var synergyDemands = demandDist{
	demands: []int{1, 2, 4, 8, 16, 32},
	weights: []float64{0.82, 0.06, 0.06, 0.04, 0.015, 0.005},
}

// SiaPhillyParams configures a Sia-Philly-style trace.
type SiaPhillyParams struct {
	NumJobs       int     // jobs per trace (paper: 160)
	WindowHours   float64 // submission window (paper: 8h => 20 jobs/hour)
	MedianWorkSec float64 // median ideal duration
	DurationSigma float64 // lognormal sigma of durations
	MaxWorkSec    float64 // duration cap
	Seed          uint64  // base seed; the workload index is mixed in
}

// DefaultSiaPhillyParams returns the configuration used by the paper's
// Sia-Philly experiments, calibrated so a 64-GPU cluster sees sustained
// contention over the 8-hour submission window.
func DefaultSiaPhillyParams() SiaPhillyParams {
	return SiaPhillyParams{
		NumJobs:       160,
		WindowHours:   8,
		MedianWorkSec: 900,
		DurationSigma: 1.2,
		MaxWorkSec:    6 * 3600,
		Seed:          0x51A,
	}
}

// SiaPhilly generates Sia-Philly-style workload trace number idx (1-8 in
// the paper). Traces are deterministic in (params, idx). Two traces get
// the structural features §V-B discusses:
//   - workload 5: a 48-GPU, long job arrives early (job ID 19), blocking
//     subsequent jobs;
//   - workload 3: demands >= 16 GPUs only appear after job ID 60.
func SiaPhilly(params SiaPhillyParams, idx int) *Trace {
	if params.NumJobs <= 0 {
		panic(fmt.Sprintf("trace: SiaPhilly NumJobs=%d", params.NumJobs))
	}
	r := rng.New(params.Seed).Split(uint64(idx))
	models := TableIIModels()
	window := params.WindowHours * 3600

	jobs := make([]JobSpec, params.NumJobs)
	// Arrivals: a Poisson process conditioned on NumJobs arrivals in the
	// window is NumJobs uniform order statistics over the window.
	arrivals := make([]float64, params.NumJobs)
	for i := range arrivals {
		arrivals[i] = r.Float64() * window
	}
	sort.Float64s(arrivals)

	for i := range jobs {
		m := pickModel(r, models)
		demand := siaDemands.sample(r)
		if idx == 3 && i <= 60 && demand >= 16 {
			// Workload 3: large jobs only arrive later in the trace.
			demand = siaDemands.demands[r.Intn(3)] // 1, 2 or 4
		}
		work := sampleDuration(r, params.MedianWorkSec, params.DurationSigma, 60, params.MaxWorkSec)
		jobs[i] = JobSpec{
			ID:      i,
			Model:   m.Name,
			Class:   m.Class,
			Arrival: arrivals[i],
			Demand:  demand,
			Work:    work,
		}
	}
	if idx == 5 && len(jobs) > 19 {
		// Workload 5: an ImageNet job requesting 48 GPUs (75% of the
		// 64-GPU cluster) arrives early as job ID 19 and runs long.
		jobs[19].Model = "resnet50"
		jobs[19].Class = vprof.ClassA
		jobs[19].Demand = 48
		jobs[19].Work = 2.5 * 3600
	}
	return &Trace{Name: fmt.Sprintf("sia-philly-%d", idx), Jobs: jobs}
}

// SynergyParams configures a Synergy-style trace.
type SynergyParams struct {
	NumJobs       int     // total jobs generated
	JobsPerHour   float64 // Poisson arrival rate
	MedianWorkSec float64 // median ideal duration
	DurationSigma float64
	MaxWorkSec    float64
	Seed          uint64
}

// DefaultSynergyParams returns the Synergy configuration: Poisson
// arrivals at the given rate, durations calibrated so a 256-GPU cluster
// saturates near 10 jobs/hour (matching Fig. 15's saturation point).
// NumJobs defaults to 3200 so the steady-state measurement window of jobs
// 2000-3000 is well inside the trace.
func DefaultSynergyParams(jobsPerHour float64) SynergyParams {
	return SynergyParams{
		NumJobs:       3200,
		JobsPerHour:   jobsPerHour,
		MedianWorkSec: 8 * 3600,
		DurationSigma: 1.0,
		MaxWorkSec:    72 * 3600,
		Seed:          0x53E6,
	}
}

// Synergy generates a Synergy-style trace with Poisson arrivals.
//
// Job attributes (model, demand, duration) come from a stream that does
// not depend on the arrival rate, so sweeping JobsPerHour re-times the
// *same* job population — exactly how the paper varies load (§IV-B1
// "preserve the Philly trace's GPU demand and use a Poisson distribution
// of arrival times to vary job arrival rate"). Without this property a
// load sweep would compare different job sets and the Fig. 14 curve
// would not be monotone.
func Synergy(params SynergyParams) *Trace {
	if params.NumJobs <= 0 || params.JobsPerHour <= 0 {
		panic(fmt.Sprintf("trace: Synergy NumJobs=%d JobsPerHour=%g",
			params.NumJobs, params.JobsPerHour))
	}
	jobStream := rng.New(params.Seed).Split(1)
	arrivalStream := rng.New(params.Seed).Split(2 + uint64(params.JobsPerHour*1000))
	models := TableIIModels()
	ratePerSec := params.JobsPerHour / 3600

	jobs := make([]JobSpec, params.NumJobs)
	t := 0.0
	for i := range jobs {
		t += arrivalStream.Exp(ratePerSec) // Poisson inter-arrivals
		m := pickModel(jobStream, models)
		jobs[i] = JobSpec{
			ID:      i,
			Model:   m.Name,
			Class:   m.Class,
			Arrival: t,
			Demand:  synergyDemands.sample(jobStream),
			Work: sampleDuration(jobStream, params.MedianWorkSec,
				params.DurationSigma, 300, params.MaxWorkSec),
		}
	}
	return &Trace{
		Name: fmt.Sprintf("synergy-%.1fjph", params.JobsPerHour),
		Jobs: jobs,
	}
}

// Validate checks trace well-formedness: ascending arrivals, positive
// demands and work, dense IDs. Used by tests and CLI inspection.
func (t *Trace) Validate() error {
	prev := -math.MaxFloat64
	for i, j := range t.Jobs {
		if j.ID != i {
			return fmt.Errorf("trace %s: job %d has ID %d", t.Name, i, j.ID)
		}
		if j.Arrival < prev {
			return fmt.Errorf("trace %s: job %d arrives before its predecessor", t.Name, i)
		}
		if j.Demand <= 0 {
			return fmt.Errorf("trace %s: job %d has demand %d", t.Name, i, j.Demand)
		}
		if j.Work <= 0 {
			return fmt.Errorf("trace %s: job %d has work %g", t.Name, i, j.Work)
		}
		prev = j.Arrival
	}
	return nil
}
