package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecFilePathsResolveAgainstSpecDir: a spec file's relative
// workload and profile paths resolve against the file's directory, so
// the file loads from any working directory and builds to one key, and
// its canonical form keeps the paths as written.
func TestSpecFilePathsResolveAgainstSpecDir(t *testing.T) {
	gen, err := Parse([]byte(`{"name": "gen", "cluster": {"nodes": 2},
		"workload": {"source": "synthetic", "num_jobs": 6, "jobs_per_hour": 30}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Build()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, dir := range []string{"data", "specs"} {
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	save := func(name string, write func(*os.File) error) {
		f, err := os.Create(filepath.Join(root, "data", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	save("trace.json", func(f *os.File) error { return b.Trace.Save(f) })
	save("profile.json", func(f *os.File) error { return b.Profile.Save(f) })
	spec := `{"name": "relative", "cluster": {"nodes": 2},
		"workload": {"source": "file", "path": "../data/trace.json"},
		"profile": {"source": "file", "path": "../data/profile.json"},
		"grid": {"policies": ["pal", "packed-sticky"]}}`
	if err := os.WriteFile(filepath.Join(root, "specs", "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	keys := map[string]string{}
	for _, c := range []struct{ name, cwd, path string }{
		{"spec-dir", filepath.Join(root, "specs"), "spec.json"},
		{"root", root, "specs/spec.json"},
		{"elsewhere", t.TempDir(), filepath.Join(root, "specs", "spec.json")},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Chdir(c.cwd)
			s, err := LoadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := s.ExpandGrid()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, cell := range cells {
				built, err := cell.Build()
				if err != nil {
					t.Fatal(err)
				}
				key := built.Key()
				canon, err := cell.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(canon), `"../data/trace.json"`) {
					t.Errorf("canonical spec does not keep the path as written: %s", canon)
				}
				got = append(got, key)
			}
			keys[c.name] = strings.Join(got, ",")
		})
	}
	if keys["root"] != keys["spec-dir"] || keys["elsewhere"] != keys["spec-dir"] {
		t.Errorf("keys differ by working directory: %v", keys)
	}

	// A spec Parse read has no file, so its paths resolve against the
	// working directory.
	t.Chdir(root)
	s, err := Parse([]byte(strings.Replace(spec, `"grid": {"policies": ["pal", "packed-sticky"]}`, `"policy": {"name": "pal"}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "../data/") {
		t.Errorf("parsed spec resolved ../data/ against something other than the working directory: %v", err)
	}
}

// TestSharedTestSpecLoadsFromRepoRoot: the CLIs' shared test spec,
// whose workload path is relative, builds from the repository root as
// it does from a command's directory, to the same key.
func TestSharedTestSpecLoadsFromRepoRoot(t *testing.T) {
	key := func(cwd, path string) string {
		t.Chdir(cwd)
		s, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Build()
		if err != nil {
			t.Fatalf("from %s: %v", cwd, err)
		}
		return b.Key()
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	repo := filepath.Join(wd, "..", "..")
	fromRoot := key(repo, "cmd/testdata/nothing-completes.json")
	if fromCmd := key(filepath.Join(repo, "cmd", "palsim"), "../testdata/nothing-completes.json"); fromRoot != fromCmd {
		t.Errorf("key from the repo root %s, from cmd/palsim %s", fromRoot, fromCmd)
	}
}
