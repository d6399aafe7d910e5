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
