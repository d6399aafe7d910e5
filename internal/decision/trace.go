package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/sim"
)

// Ceiling sentinels. Attained-service ceilings are non-negative
// GPU-second values, but the partition-stability contract also produces
// the two infinities (sim.PartitionStableScheduler), and a trace must
// serialize to plain JSON, which cannot encode ±Inf. Records therefore
// store the sentinels below in place of the special values — negative,
// so they can never collide with a real ceiling.
const (
	// CeilingNone marks an entry with no ceiling recorded: a waiting
	// job, a scheduler without partition stability, or the "ceilings"
	// facet disabled.
	CeilingNone = -1.0
	// CeilingUnbounded stands for +Inf: the partition can never flip on
	// this job's account (FIFO/SRTF-style frozen keys).
	CeilingUnbounded = -2.0
	// CeilingExpired stands for -Inf: the job is already at or past its
	// ceiling (a demotion is due at the next full round).
	CeilingExpired = -3.0
)

// encodeCeiling maps an engine ceiling onto its archival value.
func encodeCeiling(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return CeilingUnbounded
	case math.IsInf(v, -1):
		return CeilingExpired
	default:
		return v
	}
}

// OrderEntry is one job's position in a record's scheduling order, with
// the state the scheduler ordered it by.
type OrderEntry struct {
	Job      int     `json:"job"`
	Demand   int     `json:"demand"`
	Attained float64 `json:"attained"`
	// Running marks entries inside the schedulable prefix (holding GPUs
	// for the record's span).
	Running bool `json:"running,omitempty"`
	// Ceiling is the running job's attained-service ceiling — the bound
	// below which the running/waiting partition provably holds — or one
	// of the Ceiling* sentinels.
	Ceiling float64 `json:"ceiling"`
}

// Placement archives one sim.PlacementDecision.
type Placement struct {
	Job      int     `json:"job"`
	GPUs     int     `json:"gpus"`
	Nodes    int     `json:"nodes"`
	Racks    int     `json:"racks"`
	Locality float64 `json:"locality"`
	PMScore  float64 `json:"pm_score"`
	Slowdown float64 `json:"slowdown"`
	Started  bool    `json:"started,omitempty"`
	Resumed  bool    `json:"resumed,omitempty"`
	Migrated bool    `json:"migrated,omitempty"`
}

// Preemption archives one sim.PreemptionDecision.
type Preemption struct {
	Job  int `json:"job"`
	GPUs int `json:"gpus"`
}

// Record is one coalesced decision span: a scheduling decision and the
// stretch of rounds it stayed in force. A new record opens exactly when
// the decision changes — a placement or preemption happens, the running
// set gains or loses a job, or the waiting count moves — so a trace
// reads as a timeline of decision *changes*, identical whichever
// stepping regime the engine used.
type Record struct {
	// Round is the index of the record's first round (0-based over the
	// whole run); Start the engine clock there; Rounds the span length.
	Round  int64   `json:"round"`
	Start  float64 `json:"start"`
	Rounds int     `json:"rounds"`

	// Order is the scheduler's order over the active set when the
	// decision was made (running prefix first, then waiters). Nil for
	// idle gaps or when the "order" facet is disabled.
	Order []OrderEntry `json:"order"`
	// Prefix counts the leading Order entries holding GPUs; Waiting the
	// active jobs without GPUs.
	Prefix  int `json:"prefix"`
	Waiting int `json:"waiting"`

	Placements  []Placement  `json:"placements"`
	Preemptions []Preemption `json:"preemptions"`
}

// Trace is the serializable decision trace of one run: identity
// metadata plus the coalesced decision records. It is what palsim and
// palsweep archive next to metrics payloads and what palexplain and
// palreport -decisions render — explainability without re-simulation.
//
// Traces attached to cached results are shared: treat them as
// read-only, and copy the struct before relabeling one.
type Trace struct {
	// Name/Policy/Sched identify the run (scenario name and registry
	// names); Key is the run's content-addressed cache key when the
	// archiving caller knows it.
	Name   string `json:"name"`
	Policy string `json:"policy,omitempty"`
	Sched  string `json:"sched,omitempty"`
	Key    string `json:"key,omitempty"`

	RoundSec float64 `json:"round_sec"`
	// TimeBase is the engine clock (seconds) of round index 0.
	TimeBase float64 `json:"time_base"`
	// Facets lists the decision facets recorded (see AllFacets).
	Facets []string `json:"facets,omitempty"`

	Records []Record `json:"records"`

	// Dropped counts records evicted from the bounded ring buffer
	// (oldest first); Truncated is set whenever Dropped > 0 — the trace
	// then covers only the run's tail.
	Dropped   int64 `json:"dropped,omitempty"`
	Truncated bool  `json:"truncated,omitempty"`

	// RunTruncated/Unfinished carry the run's MaxRounds flag (a
	// truncated run is a different quantity than a completed one).
	RunTruncated bool `json:"run_truncated,omitempty"`
	Unfinished   int  `json:"unfinished,omitempty"`

	// Rounds is the total number of simulated rounds the trace covers
	// (every round of the run, merged spans included).
	Rounds int64 `json:"rounds"`
}

// Mentions reports whether the record involves the job.
func (r *Record) Mentions(jobID int) bool {
	for _, e := range r.Order {
		if e.Job == jobID {
			return true
		}
	}
	for _, p := range r.Placements {
		if p.Job == jobID {
			return true
		}
	}
	for _, p := range r.Preemptions {
		if p.Job == jobID {
			return true
		}
	}
	return false
}

// Save writes the trace as indented JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("decision: save trace: %w", err)
	}
	return nil
}

// Load reads a trace previously written with Save. Unknown fields and
// anything but whitespace after the trace are rejected, so a trace from
// a future encoding (or a corrupted file) fails loudly instead of
// silently dropping data.
func Load(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("decision: decode trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decision: trailing data after trace")
	}
	return &t, nil
}

// LoadFile reads the trace in the named file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("decision: %w", err)
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("decision: %s: %w", path, err)
	}
	return t, nil
}

// FromResult extracts the decision trace riding on a result, live or
// loaded from an archive (both sink flavors expose Trace()). Nil when
// the run recorded no decisions.
func FromResult(res *sim.Result) *Trace {
	if res == nil || res.Decisions == nil {
		return nil
	}
	if tp, ok := res.Decisions.(interface{ Trace() *Trace }); ok {
		return tp.Trace()
	}
	return nil
}
