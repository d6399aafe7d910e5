package trace

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file holds the declarative synthetic workload generator behind
// the scenario layer (internal/scenario): a Philly-like job population
// (Table II model mix, configurable GPU-demand and lognormal-duration
// distributions) timed by one of three arrival processes. Like Synergy,
// job attributes and arrival times come from separate rng.Split streams,
// so changing the arrival process or rate re-times the *same* job
// population — load sweeps over synthetic scenarios compare like with
// like.

// ArrivalProcess names the arrival-time process of a synthetic workload.
type ArrivalProcess string

// The supported arrival processes.
const (
	// ArrivalPoisson is a homogeneous Poisson process at JobsPerHour.
	ArrivalPoisson ArrivalProcess = "poisson"
	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// quiet stretches at a low rate punctuated by bursts at
	// BurstFactor × the mean rate, with the rates balanced so the
	// time-average remains JobsPerHour. Production traces (Philly
	// included) are burstier than Poisson; this is the knob that
	// reproduces that.
	ArrivalBursty ArrivalProcess = "bursty"
	// ArrivalDiurnal is a nonhomogeneous Poisson process whose rate
	// follows a sinusoidal day/night cycle with the given peak-to-trough
	// ratio, sampled by thinning.
	ArrivalDiurnal ArrivalProcess = "diurnal"
)

// SynthParams configures a synthetic Philly-like trace. The zero value
// of every optional field selects a documented default, so a minimal
// scenario spec only names the process, the rate and the job count.
type SynthParams struct {
	Name    string // trace name (default "synth-<process>")
	NumJobs int    // number of jobs (required, > 0)
	Seed    uint64 // base seed; attribute and arrival streams are Split from it

	// Arrivals selects the arrival process (default ArrivalPoisson).
	Arrivals    ArrivalProcess
	JobsPerHour float64 // mean arrival rate (required, > 0)

	// Bursty parameters.
	BurstFactor   float64 // rate multiplier inside bursts (default 6; must satisfy BurstFactor × BurstFraction < 1)
	BurstFraction float64 // fraction of time spent bursting (default 0.1)
	BurstMeanSec  float64 // mean burst duration in seconds (default 1800)

	// Diurnal parameters.
	PeriodHours  float64 // cycle length (default 24)
	PeakToTrough float64 // peak rate / trough rate (default 4, must be >= 1)

	// Job population. Demands/DemandWeights default to the Philly
	// demand mix (>80% single-GPU); Models defaults to TableIIModels.
	Demands       []int
	DemandWeights []float64
	Models        []Model

	// Duration distribution: lognormal around MedianWorkSec with
	// DurationSigma, clamped to [MinWorkSec, MaxWorkSec]. Defaults:
	// median 2 h, sigma 1.0, min 300 s, max 72 h.
	MedianWorkSec float64
	DurationSigma float64
	MinWorkSec    float64
	MaxWorkSec    float64
}

// withDefaults returns a copy of p with zero fields defaulted. It is
// idempotent, which the scenario layer's canonicalization relies on.
func (p SynthParams) withDefaults() SynthParams {
	if p.Arrivals == "" {
		p.Arrivals = ArrivalPoisson
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("synth-%s", p.Arrivals)
	}
	if p.BurstFactor <= 0 {
		p.BurstFactor = 6
	}
	if p.BurstFraction <= 0 {
		p.BurstFraction = 0.1
	}
	if p.BurstMeanSec <= 0 {
		p.BurstMeanSec = 1800
	}
	if p.PeriodHours <= 0 {
		p.PeriodHours = 24
	}
	if p.PeakToTrough <= 0 {
		p.PeakToTrough = 4
	}
	if len(p.Demands) == 0 {
		p.Demands = append([]int(nil), synergyDemands.demands...)
		p.DemandWeights = append([]float64(nil), synergyDemands.weights...)
	}
	if len(p.Models) == 0 {
		p.Models = TableIIModels()
	}
	if p.MedianWorkSec <= 0 {
		p.MedianWorkSec = 2 * 3600
	}
	if p.DurationSigma <= 0 {
		p.DurationSigma = 1.0
	}
	if p.MinWorkSec <= 0 {
		p.MinWorkSec = 300
	}
	if p.MaxWorkSec <= 0 {
		p.MaxWorkSec = 72 * 3600
	}
	return p
}

// Validate reports whether the parameters describe a generable trace.
func (p SynthParams) Validate() error {
	p = p.withDefaults()
	if p.NumJobs <= 0 {
		return fmt.Errorf("trace: synth NumJobs=%d, want > 0", p.NumJobs)
	}
	if p.JobsPerHour <= 0 {
		return fmt.Errorf("trace: synth JobsPerHour=%g, want > 0", p.JobsPerHour)
	}
	switch p.Arrivals {
	case ArrivalPoisson, ArrivalDiurnal:
	case ArrivalBursty:
		if p.BurstFactor*p.BurstFraction >= 1 {
			return fmt.Errorf("trace: bursty needs BurstFactor×BurstFraction < 1 (got %g×%g): the quiet-period rate would be negative",
				p.BurstFactor, p.BurstFraction)
		}
	default:
		return fmt.Errorf("trace: unknown arrival process %q (want poisson, bursty or diurnal)", p.Arrivals)
	}
	if p.PeakToTrough < 1 {
		return fmt.Errorf("trace: diurnal PeakToTrough=%g, want >= 1", p.PeakToTrough)
	}
	if len(p.DemandWeights) != len(p.Demands) {
		return fmt.Errorf("trace: %d demands but %d weights", len(p.Demands), len(p.DemandWeights))
	}
	for _, d := range p.Demands {
		if d <= 0 {
			return fmt.Errorf("trace: demand %d, want > 0", d)
		}
	}
	if p.MinWorkSec > p.MaxWorkSec {
		return fmt.Errorf("trace: MinWorkSec %g > MaxWorkSec %g", p.MinWorkSec, p.MaxWorkSec)
	}
	return nil
}

// Synth generates a synthetic Philly-like trace. The result is
// deterministic in the parameters; arrival timing and job attributes use
// independent rng.Split streams.
func Synth(params SynthParams) (*Trace, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := params.withDefaults()

	jobStream := rng.New(p.Seed).Split(1)
	arrivalStream := rng.New(p.Seed).Split(2)

	arrivals := synthArrivals(p, arrivalStream)
	demand := demandDist{demands: p.Demands, weights: p.DemandWeights}

	jobs := make([]JobSpec, p.NumJobs)
	for i := range jobs {
		m := pickModel(jobStream, p.Models)
		jobs[i] = JobSpec{
			ID:      i,
			Model:   m.Name,
			Class:   m.Class,
			Arrival: arrivals[i],
			Demand:  demand.sample(jobStream),
			Work: sampleDuration(jobStream, p.MedianWorkSec, p.DurationSigma,
				p.MinWorkSec, p.MaxWorkSec),
		}
	}
	t := &Trace{Name: p.Name, Jobs: jobs}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// synthArrivals draws NumJobs ascending arrival times for the selected
// process.
func synthArrivals(p SynthParams, r *rng.RNG) []float64 {
	ratePerSec := p.JobsPerHour / 3600
	out := make([]float64, p.NumJobs)
	switch p.Arrivals {
	case ArrivalPoisson:
		t := 0.0
		for i := range out {
			t += r.Exp(ratePerSec)
			out[i] = t
		}

	case ArrivalBursty:
		// Two-state MMPP. With fraction f of time in bursts at rate
		// B×λ, quiet periods run at λ(1-fB)/(1-f) so the time-average
		// stays λ. State sojourns are exponential with means chosen to
		// realize f.
		f := p.BurstFraction
		burstRate := p.BurstFactor * ratePerSec
		quietRate := ratePerSec * (1 - float64(f*p.BurstFactor)) / (1 - f)
		burstMean := p.BurstMeanSec
		quietMean := burstMean * (1 - f) / f

		t := 0.0
		inBurst := false
		// Time remaining in the current state.
		stateLeft := r.Exp(1 / quietMean)
		for i := range out {
			for {
				rate := quietRate
				if inBurst {
					rate = burstRate
				}
				var gap float64
				if rate > 0 {
					gap = r.Exp(rate)
				} else {
					gap = math.Inf(1) // degenerate quiet rate: wait out the state
				}
				if gap < stateLeft {
					stateLeft -= gap
					t += gap
					out[i] = t
					break
				}
				// State flips before the next arrival; advance to the
				// boundary and redraw in the new state.
				t += stateLeft
				inBurst = !inBurst
				mean := quietMean
				if inBurst {
					mean = burstMean
				}
				stateLeft = r.Exp(1 / mean)
			}
		}

	case ArrivalDiurnal:
		// Thinning (Lewis & Shedler): candidates at the peak rate
		// λ(1+a), accepted with probability rate(t)/λ(1+a) where
		// rate(t) = λ(1 + a·sin(2πt/T)) and a = (P-1)/(P+1) realizes a
		// peak-to-trough ratio of P.
		a := (p.PeakToTrough - 1) / (p.PeakToTrough + 1)
		period := p.PeriodHours * 3600
		peak := ratePerSec * (1 + a)
		t := 0.0
		for i := range out {
			for {
				t += r.Exp(peak)
				rate := ratePerSec * (1 + float64(a*math.Sin(2*math.Pi*t/period)))
				if r.Float64()*peak < rate {
					out[i] = t
					break
				}
			}
		}
	}
	return out
}
