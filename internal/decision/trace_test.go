package decision

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestTraceSaveLoad: a saved trace loads back deep-equal, and Load
// rejects unknown fields and anything after the document.
func TestTraceSaveLoad(t *testing.T) {
	tr := &Trace{
		Name:     "rt",
		RoundSec: 300,
		TimeBase: 60,
		Facets:   []string{"order"},
		Records: []Record{{
			Order:      []OrderEntry{{Job: 1, Demand: 2, Attained: 600, Running: true, Ceiling: CeilingUnbounded}},
			Placements: []Placement{},
		}},
		Rounds: 4,
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("trace did not round-trip:\n in  %+v\nout %+v", tr, got)
	}

	for name, src := range map[string]string{
		"unknown field":     `{"name": "x", "bogus": 1}`,
		"trailing garbage":  `{} trailing`,
		"second document":   buf.String() + `{"garbage": 1}`,
		"trailing brace":    `{}}`,
		"trailing scalar":   `{} 1`,
		"truncated payload": buf.String()[:buf.Len()/2],
	} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Load accepted %q", name, src)
		}
	}
	if _, err := Load(strings.NewReader("{}\n\t \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
