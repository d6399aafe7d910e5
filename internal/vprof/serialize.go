package vprof

import (
	"encoding/json"
	"fmt"
	"io"
)

// Profiles are generated at design time and remain static for a
// deployment (§IV-C), so operators persist them between scheduler
// restarts; this file provides the JSON wire format. The format stores
// the normalized scores — re-normalization on load is therefore a no-op
// up to floating-point identity, which Save/Load round-trip tests pin
// down.

// profileJSON is the serialized form of a Profile.
type profileJSON struct {
	Name    string      `json:"name"`
	Classes int         `json:"classes"`
	GPUs    int         `json:"gpus"`
	Scores  [][]float64 `json:"scores"` // [class][gpu], normalized
}

// Save writes the profile as JSON.
func (p *Profile) Save(w io.Writer) error {
	out := profileJSON{
		Name:    p.name,
		Classes: p.classes,
		GPUs:    p.NumGPUs(),
		Scores:  make([][]float64, p.classes),
	}
	for c := 0; c < p.classes; c++ {
		out.Scores[c] = p.ClassScores(Class(c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Load reads a profile previously written by Save. The scores are
// validated (shape and positive medians) through NewProfile.
func Load(r io.Reader) (*Profile, error) {
	var in profileJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("vprof: decode profile: %w", err)
	}
	// Anything but whitespace after the profile means the file is not
	// one profile.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("vprof: trailing data after profile")
	}
	if len(in.Scores) != in.Classes {
		return nil, fmt.Errorf("vprof: profile %q declares %d classes, has %d score rows",
			in.Name, in.Classes, len(in.Scores))
	}
	for c, row := range in.Scores {
		if len(row) != in.GPUs {
			return nil, fmt.Errorf("vprof: profile %q class %d has %d GPUs, declared %d",
				in.Name, c, len(row), in.GPUs)
		}
	}
	return NewProfile(in.Name, in.Scores)
}
