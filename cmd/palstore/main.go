// Command palstore inspects and maintains the persistent result store
// (internal/store) that `palsweep -store` and `palsim -store` populate:
// the disk tier of the content-addressed result cache, holding one
// archived *sim.Result per canonical configuration hash — plus, in a
// sibling versioned tree, the engine snapshots forked sweeps capture
// (one per shared warmup prefix). ls and info report both kinds side by
// side; verify re-hashes and re-decodes both; gc applies one policy to
// both trees.
//
// Subcommands:
//
//	palstore ls     -store DIR              list stored objects (key, size, ages, embedded payloads)
//	palstore info   -store DIR KEY          one object in detail (unique key prefix OK)
//	palstore verify -store DIR              re-hash and decode every object
//	palstore gc     -store DIR -max-bytes N -max-age DUR   evict LRU/stale objects
//	palstore export -store DIR -format csv|md|text|json    summary table of stored runs
//
// verify exits non-zero when any object fails its content hash or does
// not decode under the current codec, so CI can gate on store health.
// export tabulates straight from the archived results — no simulation,
// no separate metrics pass — with the same formats as palsweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "ls":
		cmdLs(args)
	case "info":
		cmdInfo(args)
	case "verify":
		cmdVerify(args)
	case "gc":
		cmdGC(args)
	case "export":
		cmdExport(args)
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "palstore: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: palstore <command> [flags]

commands:
  ls      -store DIR                        list stored objects
  info    -store DIR KEY                    show one object (unique key prefix OK)
  verify  -store DIR                        re-hash + decode every object; non-zero exit on problems
  gc      -store DIR [-max-bytes N] [-max-age DUR]   evict stale/LRU objects, compact the index
  export  -store DIR [-format csv|md|text|json]      summary table of stored runs
`)
}

// openFlags builds a flag set with the shared -store flag.
func openFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("palstore "+name, flag.ExitOnError)
	dir := fs.String("store", "", "result-store directory (as passed to palsweep/palsim -store)")
	return fs, dir
}

// mustOpen parses the flags and opens the store, failing loudly when
// -store is missing or does not hold a store.
func mustOpen(fs *flag.FlagSet, dir *string, args []string) *store.Store {
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("-store is required"))
	}
	if !store.IsStoreRoot(*dir) {
		// Opening a fresh directory would silently create an empty store;
		// for an inspection CLI a typo should say so instead. A store
		// holding only older codec versions still opens — gc is the
		// documented way to reclaim a superseded tree.
		fatal(fmt.Errorf("%s is not a result store (no v*/objects tree)", *dir))
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	return st
}

func cmdLs(args []string) {
	fs, dir := openFlags("ls")
	st := mustOpen(fs, dir, args)
	infos, err := st.Infos()
	if err != nil {
		fatal(err)
	}
	snapInfos, err := st.SnapshotInfos()
	if err != nil {
		fatal(err)
	}
	if len(infos)+len(snapInfos) == 0 {
		fmt.Println("(empty store)")
		return
	}
	now := time.Now()
	fmt.Printf("%-16s  %-8s  %10s  %12s  %12s  %s\n", "KEY", "KIND", "SIZE", "AGE", "LAST-ACCESS", "DETAIL")
	var total int64
	for _, info := range infos {
		// Peek, not Get: listing must not refresh GC recency.
		detail := "?"
		if res, ok, err := st.Peek(info.Key); err == nil && ok {
			detail = payloadFlags(res)
		}
		fmt.Printf("%-16s  %-8s  %10d  %12s  %12s  %s\n",
			info.Key[:16], "result", info.Size, age(now, info.Created), age(now, info.LastAccess), detail)
		total += info.Size
	}
	for _, info := range snapInfos {
		detail := "?"
		if snap, ok, err := st.PeekSnapshot(info.Key); err == nil && ok {
			detail = snapshotDetail(snap)
		}
		fmt.Printf("%-16s  %-8s  %10d  %12s  %12s  %s\n",
			info.Key[:16], "snapshot", info.Size, age(now, info.Created), age(now, info.LastAccess), detail)
		total += info.Size
	}
	fmt.Printf("%d results + %d snapshots, %.1f MiB (%s, codec %s, snapshot codec %s)\n",
		len(infos), len(snapInfos), float64(total)/(1<<20), st.Dir(),
		export.ResultFormatVersion, export.SnapshotFormatVersion)
}

func cmdInfo(args []string) {
	fs, dir := openFlags("info")
	st := mustOpen(fs, dir, args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("info wants exactly one KEY argument (a unique prefix is enough)"))
	}
	key, kind, err := resolveKey(st, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if kind == "snapshot" {
		snapshotInfo(st, key)
		return
	}
	info, ok, err := st.Info(key)
	if err != nil || !ok {
		fatal(fmt.Errorf("object %s: ok=%v err=%v", key, ok, err))
	}
	res, ok, err := st.Peek(key) // inspection must not refresh GC recency
	if err != nil {
		fatal(err)
	}
	if !ok {
		fatal(fmt.Errorf("object %s vanished mid-read", key))
	}
	fmt.Printf("key          %s\n", key)
	fmt.Printf("kind         result\n")
	fmt.Printf("size         %d bytes\n", info.Size)
	if info.SHA256 != "" {
		fmt.Printf("sha256       %s\n", info.SHA256)
	}
	fmt.Printf("created      %s\n", info.Created.Format(time.RFC3339))
	fmt.Printf("last access  %s\n", info.LastAccess.Format(time.RFC3339))
	if p := metrics.FromResult(res); p != nil {
		fmt.Printf("run          %s (policy %s, sched %s)\n", p.Name, p.Policy, p.Sched)
	} else {
		fmt.Printf("run          (no telemetry archived)\n")
	}
	fmt.Printf("payload      %s\n", payloadFlags(res))
	if tr := decision.FromResult(res); tr != nil {
		truncated := ""
		if tr.Truncated {
			truncated = fmt.Sprintf(" (truncated, %d dropped)", tr.Dropped)
		}
		fmt.Printf("decisions    %d records covering %d rounds%s\n", len(tr.Records), tr.Rounds, truncated)
	}
	a := metrics.Summarize(res)
	fmt.Printf("jobs         %d (%d measured)\n", a.Jobs, a.Measured)
	fmt.Printf("rounds       %d\n", a.Rounds)
	if res.Truncated {
		fmt.Printf("TRUNCATED    %d jobs unfinished; metrics cover completed jobs only\n", res.Unfinished)
	}
	if a.HasJCT() {
		fmt.Printf("avg JCT      %.1f s\n", a.AvgJCT)
		fmt.Printf("p99 JCT      %.1f s\n", a.P99JCT)
	} else {
		fmt.Printf("avg JCT      -\np99 JCT      -\n")
	}
	if a.HasMakespan(res.Unfinished) {
		fmt.Printf("makespan     %.1f s (%.2f h)\n", a.Makespan, a.Makespan/3600)
	} else {
		fmt.Printf("makespan     -\n")
	}
	fmt.Printf("utilization  %.2f%%\n", 100*a.Utilization)
}

func cmdVerify(args []string) {
	fs, dir := openFlags("verify")
	st := mustOpen(fs, dir, args)
	problems, err := st.Verify()
	if err != nil {
		fatal(err)
	}
	n, err := st.Len()
	if err != nil {
		fatal(err)
	}
	snapKeys, err := st.SnapshotKeys()
	if err != nil {
		fatal(err)
	}
	total := n + len(snapKeys)
	if len(problems) == 0 {
		fmt.Printf("palstore: ok — %d objects verified (%d results, codec %s; %d snapshots, codec %s)\n",
			total, n, export.ResultFormatVersion, len(snapKeys), export.SnapshotFormatVersion)
		return
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "palstore: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "palstore: %d problems in %d objects (gc evicts undamaged-but-stale objects; damaged ones must be deleted and re-simulated)\n",
		len(problems), total)
	os.Exit(1)
}

func cmdGC(args []string) {
	fs, dir := openFlags("gc")
	maxBytes := fs.Int64("max-bytes", 0, "evict least-recently-accessed objects until the store fits (0 = no size bound)")
	maxAge := fs.Duration("max-age", 0, "evict objects not accessed within this duration (0 = no age bound)")
	st := mustOpen(fs, dir, args)
	rep, err := st.GC(store.GCPolicy{MaxBytes: *maxBytes, MaxAge: *maxAge})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("palstore: gc kept %d objects (%.1f MiB), removed %d (%.1f MiB freed)\n",
		rep.Kept, float64(rep.KeptBytes)/(1<<20), rep.Removed, float64(rep.FreedBytes)/(1<<20))
}

func cmdExport(args []string) {
	fs, dir := openFlags("export")
	format := fs.String("format", "md", "output format: text, csv, md, json")
	st := mustOpen(fs, dir, args)
	if err := export.CheckFormat(*format); err != nil {
		fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		fatal(err)
	}
	table := &experiments.Table{
		Name:  "store_summary",
		Title: fmt.Sprintf("archived results in %s", st.Root()),
		Header: []string{"key", "run", "policy", "sched", "jobs", "measured",
			"avg_jct_s", "p50_jct_s", "p99_jct_s", "mean_wait_s", "util_pct", "rounds", "truncated"},
	}
	for _, key := range keys {
		res, ok, err := st.Peek(key) // inspection must not refresh GC recency
		if err != nil {
			fatal(err)
		}
		if !ok {
			continue // raced with a concurrent GC
		}
		name, policy, sched := "-", "-", "-"
		if p := metrics.FromResult(res); p != nil {
			name, policy, sched = p.Name, p.Policy, p.Sched
		}
		a := metrics.Summarize(res)
		truncated := ""
		if res.Truncated {
			truncated = fmt.Sprintf("yes (%d unfinished)", res.Unfinished)
		}
		var avg, p50, p99, wait any = "-", "-", "-", "-"
		if a.HasJCT() {
			avg, p50, p99, wait = a.AvgJCT, a.P50JCT, a.P99JCT, a.MeanWait
		}
		table.AddRowf(key[:16], name, policy, sched, a.Jobs, a.Measured,
			avg, p50, p99, wait, 100*a.Utilization, a.Rounds, truncated)
	}
	if err := export.WriteTable(table, *format, ""); err != nil {
		fatal(err)
	}
}

// payloadFlags summarizes which observability payloads an archived
// result embeds: "metrics", "decisions", both, or "-" for a bare result.
func payloadFlags(res *sim.Result) string {
	var flags []string
	if metrics.FromResult(res) != nil {
		flags = append(flags, "metrics")
	}
	if decision.FromResult(res) != nil {
		flags = append(flags, "decisions")
	}
	if len(flags) == 0 {
		return "-"
	}
	return strings.Join(flags, "+")
}

// age renders how long ago t was, compactly.
func age(now, t time.Time) string {
	d := now.Sub(t)
	if d < 0 {
		d = 0
	}
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 48*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}

// snapshotDetail is the one-line summary of a stored engine snapshot
// for the ls listing.
func snapshotDetail(snap *sim.Snapshot) string {
	if snap.Completed {
		return "completed sentinel (prefix finished before its horizon)"
	}
	return fmt.Sprintf("round %d, %d arrived jobs, sched %s, placer %s",
		snap.Rounds, len(snap.Jobs), snap.SchedName, snap.PlacerName)
}

// snapshotInfo renders one snapshot object in detail — the snapshot
// branch of cmdInfo.
func snapshotInfo(st *store.Store, key string) {
	infos, err := st.SnapshotInfos()
	if err != nil {
		fatal(err)
	}
	var info *store.ObjectInfo
	for i := range infos {
		if infos[i].Key == key {
			info = &infos[i]
			break
		}
	}
	if info == nil {
		fatal(fmt.Errorf("snapshot %s vanished mid-read", key))
	}
	snap, ok, err := st.PeekSnapshot(key) // inspection must not refresh GC recency
	if err != nil {
		fatal(err)
	}
	if !ok {
		fatal(fmt.Errorf("snapshot %s vanished mid-read", key))
	}
	fmt.Printf("key          %s\n", key)
	fmt.Printf("kind         snapshot\n")
	fmt.Printf("size         %d bytes\n", info.Size)
	if info.SHA256 != "" {
		fmt.Printf("sha256       %s\n", info.SHA256)
	}
	fmt.Printf("created      %s\n", info.Created.Format(time.RFC3339))
	fmt.Printf("last access  %s\n", info.LastAccess.Format(time.RFC3339))
	if snap.Completed {
		fmt.Printf("state        completed sentinel: the warmup prefix finished before its horizon, so\n")
		fmt.Printf("             there is no engine state to fork from (cells run from scratch)\n")
		return
	}
	fmt.Printf("horizon      round %d (engine clock %.0f s)\n", snap.Rounds, snap.Now)
	fmt.Printf("round        %.0f s\n", snap.RoundSec)
	fmt.Printf("cluster      %d GPUs\n", snap.Topology.Size())
	running := 0
	for _, j := range snap.Jobs {
		if len(j.Alloc) > 0 {
			running++
		}
	}
	fmt.Printf("jobs         %d arrived (%d allocated), next arrival index %d\n",
		len(snap.Jobs), running, snap.NextArrival)
	fmt.Printf("warmup       sched %s, placer %s\n", snap.SchedName, snap.PlacerName)
	sinks := "-"
	var flags []string
	if len(snap.MetricsState) > 0 {
		flags = append(flags, "metrics")
	}
	if len(snap.DecisionsState) > 0 {
		flags = append(flags, "decisions")
	}
	if len(flags) > 0 {
		sinks = strings.Join(flags, "+")
	}
	fmt.Printf("sinks        %s\n", sinks)
}

// resolveKey expands a (possibly abbreviated) key to a stored one,
// searching results and snapshots alike and demanding uniqueness so a
// short prefix can never silently pick the wrong object. The returned
// kind is "result" or "snapshot".
func resolveKey(st *store.Store, prefix string) (string, string, error) {
	keys, err := st.Keys()
	if err != nil {
		return "", "", err
	}
	snapKeys, err := st.SnapshotKeys()
	if err != nil {
		return "", "", err
	}
	type match struct{ key, kind string }
	var matches []match
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) {
			matches = append(matches, match{k, "result"})
		}
	}
	for _, k := range snapKeys {
		if strings.HasPrefix(k, prefix) {
			matches = append(matches, match{k, "snapshot"})
		}
	}
	switch len(matches) {
	case 1:
		return matches[0].key, matches[0].kind, nil
	case 0:
		return "", "", fmt.Errorf("no stored object matches key prefix %q", prefix)
	default:
		return "", "", fmt.Errorf("key prefix %q is ambiguous (%d matches, e.g. %s %s and %s %s)",
			prefix, len(matches), matches[0].kind, matches[0].key[:16], matches[1].kind, matches[1].key[:16])
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "palstore: %v\n", err)
	os.Exit(2)
}
