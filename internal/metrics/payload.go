package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
)

// Payload is the serializable telemetry of one run: identity metadata,
// sampled time series, per-job lifecycle records, distribution
// histograms, and aggregate metrics. Payloads are what palsim/palsweep
// archive (`-metrics out/`) and what palreport aggregates — a sweep's
// evidence can be tabulated later without re-simulating anything.
//
// Payloads attached to cached results are shared: treat them as
// read-only, and copy the struct (the metadata fields are values) before
// relabeling one.
type Payload struct {
	// Name/Policy/Sched identify the run (scenario name and registry
	// names); Key is the run's content-addressed cache key when the
	// archiving caller knows it.
	Name   string `json:"name"`
	Policy string `json:"policy,omitempty"`
	Sched  string `json:"sched,omitempty"`
	Key    string `json:"key,omitempty"`

	ClusterGPUs    int     `json:"cluster_gpus,omitempty"`
	IntervalRounds int     `json:"interval_rounds"`
	RoundSec       float64 `json:"round_sec"`
	// TimeBase is the engine clock (seconds) of round index 0; a
	// sample's wall-clock time is TimeBase + index×RoundSec.
	TimeBase float64 `json:"time_base"`

	// No omitempty on the slice fields: the archive codec must keep
	// nil ("never sampled") distinct from empty ("sampled, no rows").
	Series []SeriesData `json:"series"`
	Jobs   []JobRecord  `json:"jobs"`

	// JCTHist and WaitHist bin the measured jobs' completion times and
	// queueing delays (nil when no job was measured).
	JCTHist  *stats.StreamingHist `json:"jct_hist,omitempty"`
	WaitHist *stats.StreamingHist `json:"wait_hist,omitempty"`

	Aggregates Aggregates `json:"aggregates"`

	// Truncated/Unfinished carry the run's MaxRounds flag: a truncated
	// run's metrics cover completed jobs only, and every consumer of an
	// archived payload must be able to see that.
	Truncated  bool `json:"truncated,omitempty"`
	Unfinished int  `json:"unfinished,omitempty"`
}

// SeriesData is one sampled series: parallel round-index/value slices in
// time order, plus how many older samples the ring buffer dropped.
type SeriesData struct {
	Name    string    `json:"name"`
	Rounds  []int64   `json:"rounds"`
	Values  []float64 `json:"values"`
	Dropped int64     `json:"dropped,omitempty"`
}

// Times returns the series' wall-clock sample times derived from the
// payload's time base and round length.
func (s SeriesData) Times(p *Payload) []float64 {
	out := make([]float64, len(s.Rounds))
	for i, r := range s.Rounds {
		out[i] = p.TimeBase + float64(float64(r)*p.RoundSec)
	}
	return out
}

// SeriesByName returns the named series, or false when it was not
// recorded.
func (p *Payload) SeriesByName(name string) (SeriesData, bool) {
	for _, s := range p.Series {
		if s.Name == name {
			return s, true
		}
	}
	return SeriesData{}, false
}

// JobRecord is one job's lifecycle: the quantities the paper's per-job
// plots (JCT CDFs, wait times) are built from, in archival form.
type JobRecord struct {
	ID      int     `json:"id"`
	Model   string  `json:"model,omitempty"`
	Class   string  `json:"class"`
	Arrival float64 `json:"arrival"`
	Demand  int     `json:"demand"`
	Work    float64 `json:"work"`

	Started  bool    `json:"started,omitempty"`
	FirstRun float64 `json:"first_run,omitempty"`
	Done     bool    `json:"done,omitempty"`
	Finish   float64 `json:"finish,omitempty"`
	JCT      float64 `json:"jct,omitempty"`
	Wait     float64 `json:"wait,omitempty"`
	// Rejected marks jobs refused by admission control. The engine
	// closes them out as Done with a zero-length schedule so runs can
	// terminate; without this flag they would read as instantly-finishing
	// jobs (JCT 0) in per-job analyses.
	Rejected bool `json:"rejected,omitempty"`

	Preemptions int `json:"preemptions,omitempty"`
	Migrations  int `json:"migrations,omitempty"`
	// Measured marks jobs inside the run's measurement window (aggregate
	// metrics cover exactly these).
	Measured bool `json:"measured,omitempty"`
}

// Save writes the payload as indented JSON.
func (p *Payload) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("metrics: save payload: %w", err)
	}
	return nil
}

// Load reads a payload previously written with Save. Unknown fields and
// anything but whitespace after the payload are rejected, so a payload
// from a future encoding (or a corrupted file) fails loudly instead of
// silently dropping data.
func Load(r io.Reader) (*Payload, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Payload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("metrics: decode payload: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("metrics: trailing data after payload")
	}
	return &p, nil
}

// LoadFile reads the payload in the named file.
func LoadFile(path string) (*Payload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("metrics: %s: %w", path, err)
	}
	return p, nil
}
