package vprof

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	p := GenerateLonghorn(64, 5)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != p.Name() || got.NumGPUs() != p.NumGPUs() || got.NumClasses() != p.NumClasses() {
		t.Fatal("shape changed in round trip")
	}
	for c := Class(0); int(c) < p.NumClasses(); c++ {
		for g := 0; g < p.NumGPUs(); g++ {
			if got.Score(c, g) != p.Score(c, g) {
				t.Fatalf("score changed at class %d gpu %d", c, g)
			}
		}
	}
}

func TestProfileLoadRejectsCorruption(t *testing.T) {
	cases := []string{
		"not json",
		`{"name":"x","classes":2,"gpus":2,"scores":[[1,1]]}`, // class count mismatch
		`{"name":"x","classes":1,"gpus":3,"scores":[[1,1]]}`, // gpu count mismatch
		`{"name":"x","classes":1,"gpus":2,"scores":[[0,0]]}`, // non-positive median
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("corrupt profile accepted: %s", c)
		}
	}
}

// TestProfileLoadRejectsTrailingData: a saved profile followed by
// another JSON value is not one profile; trailing whitespace is fine.
func TestProfileLoadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := GenerateLonghorn(8, 5).Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if _, err := Load(strings.NewReader(saved + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{`{"junk":1}`, `]`, `x`} {
		if _, err := Load(strings.NewReader(saved + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("profile followed by %q: err = %v, want a trailing-data error", tail, err)
		}
	}
}
