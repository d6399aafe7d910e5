package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	tr := SiaPhilly(DefaultSiaPhillyParams(), 2)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Jobs) != len(tr.Jobs) {
		t.Fatal("shape changed in round trip")
	}
	for i := range tr.Jobs {
		if got.Jobs[i] != tr.Jobs[i] {
			t.Fatalf("job %d changed: %+v vs %+v", i, got.Jobs[i], tr.Jobs[i])
		}
	}
}

func TestTraceLoadRejectsCorruption(t *testing.T) {
	cases := []string{
		"not json",
		`{"name":"x","jobs":[{"id":0,"demand":0,"work_sec":1}]}`, // zero demand
		`{"name":"x","jobs":[{"id":5,"demand":1,"work_sec":1}]}`, // non-dense IDs
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("corrupt trace accepted: %s", c)
		}
	}
}

// TestTraceLoadRejectsTrailingData: a saved trace followed by another
// JSON value is not one trace; trailing whitespace is fine.
func TestTraceLoadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := SiaPhilly(DefaultSiaPhillyParams(), 1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if _, err := Load(strings.NewReader(saved + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{`{"junk":1}`, `}`, `x`} {
		if _, err := Load(strings.NewReader(saved + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("trace followed by %q: err = %v, want a trailing-data error", tail, err)
		}
	}
}
