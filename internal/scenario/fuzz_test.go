package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: a spec comes from the user, so Parse may only return an
// error, never panic; and whatever it accepts must canonicalize to a
// fixed point — the Canonical bytes parse back and canonicalize to the
// same bytes. Seeded from the checked-in example specs. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/scenario
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs to seed from (err %v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted spec does not canonicalize: %v", err)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		second, err := again.Canonical()
		if err != nil {
			t.Fatalf("re-parsed spec does not canonicalize: %v", err)
		}
		if !bytes.Equal(canon, second) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, second)
		}
	})
}

// fuzzMaxRounds caps FuzzBuildFile's runs: enough rounds to place,
// preempt and finish jobs, few enough to keep each input fast.
const fuzzMaxRounds = 300

// FuzzBuildFile: a file-sourced trace or profile comes from the user,
// so building a spec over one and running it may only return an error,
// never panic. Each input is a spec (its first grid cell) whose
// workload and profile are replaced by the fuzzed trace and profile
// bytes, run for at most fuzzMaxRounds rounds. Seeded from the
// checked-in example specs with their own built trace and profile,
// from a trace whose job names a class the profile does not have, and
// from a spec with a profile.stale block. Run it with
//
//	go test -run '^$' -fuzz '^FuzzBuildFile$' -fuzztime 10s ./internal/scenario
func FuzzBuildFile(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs to seed from (err %v)", err)
	}
	var specData, traceData, profData []byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			f.Fatal(err)
		}
		cells, err := s.ExpandGrid()
		if err != nil {
			f.Fatal(err)
		}
		b, err := cells[0].Build()
		if err != nil {
			f.Fatal(err)
		}
		var tr, prof bytes.Buffer
		if err := b.Trace.Save(&tr); err != nil {
			f.Fatal(err)
		}
		if err := b.Profile.Save(&prof); err != nil {
			f.Fatal(err)
		}
		f.Add(data, tr.Bytes(), prof.Bytes())
		specData, traceData, profData = data, tr.Bytes(), prof.Bytes()
	}
	class99, err := os.ReadFile("testdata/class99-trace.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(specData, class99, profData)
	// The stale block survives the file swap, so its factor fuzzes too.
	f.Add([]byte(`{"name":"stale","cluster":{"nodes":2},"profile":{"stale":{"class":0,"gpus":4,"factor":3}}}`),
		traceData, profData)
	f.Fuzz(func(t *testing.T, specData, traceData, profData []byte) {
		s, err := Parse(specData)
		if err != nil {
			return
		}
		cells, err := s.ExpandGrid()
		if err != nil || len(cells) == 0 {
			return
		}
		cell := cells[0]
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "trace.json")
		profPath := filepath.Join(dir, "profile.json")
		if err := os.WriteFile(tracePath, traceData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profPath, profData, 0o644); err != nil {
			t.Fatal(err)
		}
		cell.Workload = WorkloadSpec{Source: "file", Path: tracePath}
		cell.Profile = ProfileSpec{Source: "file", Path: profPath, Stale: cell.Profile.Stale}
		if cell.Engine.MaxRounds == 0 || cell.Engine.MaxRounds > fuzzMaxRounds {
			cell.Engine.MaxRounds = fuzzMaxRounds
		}
		cell.Normalize()
		if err := cell.Validate(); err != nil {
			return
		}
		b, err := cell.Build()
		if err != nil {
			return
		}
		_, _ = b.Run()
	})
}
