package metrics

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Aggregates are a run's headline statistics over its measured,
// completed jobs. Summarize computes them, and every output reads them
// from there: a metrics payload (so an archived payload stands alone),
// export.ResultJSON, palsim's metric block and the summary tables of
// palsweep, palstore and palreport.
//
// A statistic over no job is undefined, not a zero. The JCT and wait
// statistics exist only when some job was measured (HasJCT), the
// makespan only when some job completed (HasMakespan). An undefined
// statistic's field keeps whatever the arithmetic left, and an archived
// payload carries it as is; text and table outputs print "-" for it and
// export.ResultJSON writes null.
type Aggregates struct {
	Jobs                  int     `json:"jobs"`
	Measured              int     `json:"measured"`
	AvgJCT                float64 `json:"avg_jct_sec"`
	P50JCT                float64 `json:"p50_jct_sec"`
	P90JCT                float64 `json:"p90_jct_sec"`
	P99JCT                float64 `json:"p99_jct_sec"`
	MeanWait              float64 `json:"mean_wait_sec"`
	P99Wait               float64 `json:"p99_wait_sec"`
	Makespan              float64 `json:"makespan_sec"`
	Utilization           float64 `json:"utilization"`
	ProductiveUtilization float64 `json:"productive_utilization"`
	Rounds                int     `json:"rounds"`
}

// Summarize computes res's headline statistics.
func Summarize(res *sim.Result) Aggregates {
	jcts := res.JCTs()
	waits := res.Waits()
	return Aggregates{
		Jobs:                  len(res.Jobs),
		Measured:              len(res.Measured),
		AvgJCT:                stats.Mean(jcts),
		P50JCT:                stats.Percentile(jcts, 50),
		P90JCT:                stats.Percentile(jcts, 90),
		P99JCT:                stats.Percentile(jcts, 99),
		MeanWait:              stats.Mean(waits),
		P99Wait:               stats.Percentile(waits, 99),
		Makespan:              res.Makespan,
		Utilization:           res.Utilization,
		ProductiveUtilization: res.ProductiveUtilization,
		Rounds:                res.Rounds,
	}
}

// HasJCT reports whether the JCT and wait statistics are defined: some
// job was measured.
func (a Aggregates) HasJCT() bool { return a.Measured > 0 }

// HasMakespan reports whether the makespan is defined: some job
// completed, given the run's count of unfinished jobs.
func (a Aggregates) HasMakespan(unfinished int) bool { return unfinished < a.Jobs }
