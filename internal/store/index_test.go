package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/export"
)

// The index is on-disk input like the objects: whatever bytes it holds,
// loading it may skip lines but never wedge or crash the store.

// appendIndexLines appends raw lines to the store's index.
func appendIndexLines(t testing.TB, st *Store, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(st.index, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreIndexSkipsMalformedHash: a put record whose content hash is
// not 64 lowercase hex digits is skipped like a torn line; it must not
// replace the key's real hash (nor crash Verify's mismatch report).
func TestStoreIndexSkipsMalformedHash(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	size, _ := st.ObjectSize(key)
	for _, hash := range []string{"abc", strings.Repeat("A", 64), strings.Repeat("0", 63) + "g"} {
		appendIndexLines(t, st, fmt.Sprintf(`{"op":"put","key":%q,"size":%d,"sha256":%q,"unix_ns":1}`, key, size, hash))
		problems, err := st.Verify()
		if err != nil || len(problems) != 0 {
			t.Fatalf("hash %q: problems=%v err=%v, want a clean store", hash, problems, err)
		}
		info, ok, err := st.Info(key)
		if err != nil || !ok || !validKey(info.SHA256) {
			t.Fatalf("hash %q: info=%+v ok=%v err=%v, want the Put's hash kept", hash, info, ok, err)
		}
	}
}

// TestStoreIndexSkipsOverlongLine: one index line longer than any
// record is skipped like a torn one; the lines after it still count,
// and verify and gc keep working.
func TestStoreIndexSkipsOverlongLine(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, res := runSpec(t, tinySpec)
	if err := st.Put(first, res); err != nil {
		t.Fatal(err)
	}
	appendIndexLines(t, st, fmt.Sprintf(`{"op":"access","key":%q,"pad":"%s"}`, first, strings.Repeat("x", maxIndexLine)))
	second := key64(7)
	if err := st.Put(second, res); err != nil {
		t.Fatal(err)
	}
	infos, err := st.Infos()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if !validKey(info.SHA256) {
			t.Errorf("%s: hash %q lost", info.Key[:8], info.SHA256)
		}
	}
	if problems, err := st.Verify(); err != nil || len(problems) != 0 {
		t.Fatalf("verify: problems=%v err=%v", problems, err)
	}
	if rep, err := st.GC(GCPolicy{}); err != nil || rep.Kept != 2 {
		t.Fatalf("gc: report=%+v err=%v", rep, err)
	}
	if data, err := os.ReadFile(st.index); err != nil || len(data) > 1024 {
		t.Fatalf("gc left a %d-byte index (err=%v), want the long line compacted away", len(data), err)
	}
}

// FuzzLoadIndex runs arbitrary index bytes beside one valid object
// through Infos, Verify and GC: each may report errors or problems, but
// never panic, and GC under the zero policy keeps the object. Run with
//
//	go test -run '^$' -fuzz '^FuzzLoadIndex$' -fuzztime 10s ./internal/store
func FuzzLoadIndex(f *testing.F) {
	key, res := runSpec(f, tinySpec)
	var obj bytes.Buffer
	if err := export.EncodeResult(&obj, res); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fmt.Sprintf(`{"op":"put","key":%q,"size":%d,"sha256":"%064x","unix_ns":1}`+"\n"+
		`{"op":"access","key":%q,"unix_ns":2}`+"\n", key, obj.Len(), 0, key)))
	f.Add([]byte(`{"op":"put","key":"deadbeef`))
	// One store per worker process: removing a store tree costs more
	// than the checks themselves, and every input rewrites the index.
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.objectPath(key)), 0o755); err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(st.objectPath(key), obj.Bytes(), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, index []byte) {
		if err := os.WriteFile(st.index, index, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Infos(); err != nil {
			t.Logf("infos: %v", err)
		}
		if _, err := st.Verify(); err != nil {
			t.Logf("verify: %v", err)
		}
		if _, err := st.GC(GCPolicy{}); err != nil {
			t.Logf("gc: %v", err)
		}
		if !st.Has(key) {
			t.Fatal("gc under the zero policy removed the object")
		}
	})
}
