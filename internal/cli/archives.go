package cli

import (
	"path/filepath"
	"strings"

	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Want selects what ReadArchives loads: metrics payloads, decision
// traces, or both. Store roots always contribute their keys as well.
type Want struct {
	Payloads, Traces bool
}

// Archives is everything ReadArchives found behind one -in argument.
type Archives struct {
	// Payloads and Traces are in token order; a store root contributes
	// its results' embedded payloads and traces in key order, stamped
	// with the store key (and a key-prefix name) where they carry none.
	Payloads []*metrics.Payload
	Traces   []*decision.Trace
	// Keys holds the result key of every object in the store roots
	// named. A result without telemetry still proves its cell ran.
	Keys map[string]bool
	// Stores reports each store root read, in token order.
	Stores []StoreRead
	// PayloadMisses and TraceMisses name the file tokens that matched no
	// *.metrics.json or *.decisions.json; each CLI decides whether a
	// miss is an error.
	PayloadMisses, TraceMisses []string
}

// StoreRead reports one store root ReadArchives read.
type StoreRead struct {
	Dir string
	// Stale means the root held no results for the current codec, only
	// older-codec trees.
	Stale bool
	// NoPayload and NoTrace count the results skipped because they
	// embed no metrics payload or no decision trace.
	NoPayload, NoTrace int
}

// ReadArchives resolves a comma-separated -in argument in one pass.
// Each token is a result-store root (every stored object is decoded
// once, with Peek: reading archives must not refresh GC recency) or a
// file, directory or glob of archive files (export.ExpandFileArgs with
// the *.metrics.json or *.decisions.json suffix). When both kinds are
// wanted, only files carrying the decisions suffix load as traces, so a
// literal payload file is not misread as one. An archive that fails to
// decode is an error.
func ReadArchives(arg string, want Want) (*Archives, error) {
	a := &Archives{Keys: make(map[string]bool)}
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		// IsStoreRoot, not IsStore: a store populated under an older codec
		// version is still a store — report it as empty-for-this-codec
		// rather than "directory with no *.metrics.json".
		if store.IsStoreRoot(tok) {
			if err := a.readStore(tok, want); err != nil {
				return nil, err
			}
			continue
		}
		if want.Payloads {
			paths, err := export.ExpandFileArgs(tok, export.MetricsExt)
			if err != nil {
				a.PayloadMisses = append(a.PayloadMisses, err.Error())
			}
			for _, path := range paths {
				p, err := metrics.LoadFile(path)
				if err != nil {
					return nil, err
				}
				if p.Name == "" {
					p.Name = strings.TrimSuffix(filepath.Base(path), export.MetricsExt)
				}
				a.Payloads = append(a.Payloads, p)
			}
		}
		if want.Traces {
			paths, err := export.ExpandFileArgs(tok, export.DecisionsExt)
			if err != nil {
				a.TraceMisses = append(a.TraceMisses, err.Error())
			}
			for _, path := range paths {
				if want.Payloads && !strings.HasSuffix(path, export.DecisionsExt) {
					continue
				}
				t, err := decision.LoadFile(path)
				if err != nil {
					return nil, err
				}
				if t.Name == "" {
					t.Name = strings.TrimSuffix(filepath.Base(path), export.DecisionsExt)
				}
				a.Traces = append(a.Traces, t)
			}
		}
	}
	return a, nil
}

// readStore adds one store root's keys, and the payloads and traces
// embedded in its results, decoding each object once.
func (a *Archives) readStore(dir string, want Want) error {
	hadCurrent := store.IsStore(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	sr := StoreRead{Dir: dir, Stale: len(keys) == 0 && !hadCurrent}
	for _, key := range keys {
		a.Keys[key] = true
		res, ok, err := st.Peek(key)
		if err != nil {
			return err
		}
		if !ok {
			continue // raced with a concurrent GC
		}
		// Stamp identity on copies (stored payloads and traces are
		// shared values): the store key doubles as the cache key, and a
		// label-less archive falls back to a key prefix.
		if want.Payloads {
			if p := metrics.FromResult(res); p == nil {
				sr.NoPayload++
			} else {
				cp := *p
				cp.Key, cp.Name = orKey(cp.Key, cp.Name, key)
				a.Payloads = append(a.Payloads, &cp)
			}
		}
		if want.Traces {
			if t := decision.FromResult(res); t == nil {
				sr.NoTrace++
			} else {
				cp := *t
				cp.Key, cp.Name = orKey(cp.Key, cp.Name, key)
				a.Traces = append(a.Traces, &cp)
			}
		}
	}
	a.Stores = append(a.Stores, sr)
	return nil
}

// orKey fills an archive's empty key with the store key and its empty
// name with the key's first twelve characters.
func orKey(key, name, storeKey string) (string, string) {
	if key == "" {
		key = storeKey
	}
	if name == "" {
		name = storeKey[:12]
	}
	return key, name
}
