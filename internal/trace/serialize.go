package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/vprof"
)

// Traces serialize to JSON so a generated workload can be archived with
// the experiment results that consumed it, or hand-edited for what-if
// studies.

// jobJSON is the serialized form of one JobSpec.
type jobJSON struct {
	ID      int     `json:"id"`
	Model   string  `json:"model"`
	Class   int     `json:"class"`
	Arrival float64 `json:"arrival_sec"`
	Demand  int     `json:"demand"`
	Work    float64 `json:"work_sec"`
}

// traceJSON is the serialized form of a Trace.
type traceJSON struct {
	Name string    `json:"name"`
	Jobs []jobJSON `json:"jobs"`
}

// Save writes the trace as JSON.
func (t *Trace) Save(w io.Writer) error {
	out := traceJSON{Name: t.Name, Jobs: make([]jobJSON, len(t.Jobs))}
	for i, j := range t.Jobs {
		out.Jobs[i] = jobJSON{
			ID:      j.ID,
			Model:   j.Model,
			Class:   int(j.Class),
			Arrival: j.Arrival,
			Demand:  j.Demand,
			Work:    j.Work,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Load reads a trace previously written by Save and validates it.
func Load(r io.Reader) (*Trace, error) {
	var in traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	// Anything but whitespace after the trace means the file is not one
	// trace.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing data after trace")
	}
	t := &Trace{Name: in.Name, Jobs: make([]JobSpec, len(in.Jobs))}
	for i, j := range in.Jobs {
		t.Jobs[i] = JobSpec{
			ID:      j.ID,
			Model:   j.Model,
			Class:   vprof.Class(j.Class),
			Arrival: j.Arrival,
			Demand:  j.Demand,
			Work:    j.Work,
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
