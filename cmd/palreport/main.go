// Command palreport aggregates archived metric payloads — the
// *.metrics.json files `palsim -metrics` and `palsweep -metrics` write —
// into comparison tables, without re-running a single simulation. It is
// the reporting half of the telemetry subsystem: palsweep simulates and
// archives, palreport tabulates.
//
// Three tables come out of one invocation:
//
//   - metrics_summary: one row per run — measured jobs, avg/P50/P90/P99
//     JCT, mean wait, utilization, truncation.
//   - metrics_vs_baseline: policy-vs-policy improvements (the paper's
//     "PAL improves average JCT by X% over Tiresias" convention:
//     positive means better than the baseline) for every run against a
//     chosen baseline run.
//   - metrics_jct_cdf: the JCT distribution of every run side by side,
//     read from the archived histograms at fixed percentiles (the raw
//     material of Fig. 9-style CDF comparisons).
//
// Usage:
//
//	palreport -in out/                         # all payloads in a directory
//	palreport -in a.metrics.json,b.metrics.json -format md
//	palreport -in out/ -baseline sia-tiresias -format csv -out tables/
//	palreport -in results/.palstore            # telemetry embedded in a result store
//	palreport -in out/ -decisions              # + decision-trace summary table
//	palreport -in shared/.palstore -grid grid.json   # partial sweep: count missing cells
//	palreport -journal out/journal                   # merge execution journals (no -in needed)
//	palreport -journal out/journal -slowest 10 -format md
//
// A token that is a result-store directory (the layout palsweep -store
// writes) contributes the telemetry payload embedded in every stored
// result, so archived sweeps are tabulated straight from the store with
// no separate -metrics pass.
//
// -grid names scenario spec files whose deterministic grid expansion
// defines the cells a sweep was *supposed* to produce. palreport then
// prepends a grid_coverage table — one row per expected cell, present
// or MISSING — and keeps tabulating whatever payloads exist instead of
// erroring, so a store populated by only some shards of a sharded sweep
// (palsweep -shard i/n) reports its gaps explicitly rather than
// silently dropping them. Presence is judged against the stored result
// keys and loaded payload keys.
//
// -journal points at a directory of *.journal.jsonl files (what
// `palsweep -journal` and `palsim -journal` append, one per process)
// and renders the orchestration-layer view: journal_shards (per-process
// cache-tier hit counts, reconciled against each summary's pool
// counters), journal_engine (stepping-regime engagement from the
// engine's introspection counters: regime round mix, fast-path
// engagement rates, snapshot-fork savings — "-" for pre-counter
// journals), journal_store (store get/put latency quantiles, merged
// bin-wise across shards), journal_slowest (the -slowest N stragglers
// across all processes) and journal_workers (per-slot utilization). It
// needs no -in; combined with -in, the journal tables render first.
//
// -decisions appends a fourth table, decisions_summary: one row per
// archived decision trace (*.decisions.json next to the payloads, or
// embedded in stored results) counting its records, placements,
// preemptions and migrations. Per-job timelines and round-level diffs
// are cmd/palexplain's job.
//
// -in is read in one pass by the shared archive reader
// (internal/cli), which decodes each stored object once. Formats and
// the -out directory go through the table writer every CLI shares
// (export.WriteTable).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// cdfPercentiles are the fixed percentiles of the side-by-side CDF table.
var cdfPercentiles = []float64{10, 25, 50, 75, 90, 95, 99}

func main() {
	var (
		in          = flag.String("in", "", "comma-separated payload files, directories or globs (*.metrics.json), or result-store directories (palsweep -store)")
		baseline    = flag.String("baseline", "", "payload name to compare against (default: the first payload)")
		format      = flag.String("format", "text", "output format: text, csv, md, json")
		outDir      = flag.String("out", "", "write one file per table into this directory instead of stdout")
		decisions   = flag.Bool("decisions", false, "also tabulate archived decision traces (*.decisions.json or store-embedded) — one summary row per run; render full timelines with palexplain")
		gridFlag    = flag.String("grid", "", "scenario spec files (comma-separated, directories or globs) whose grid expansion defines the expected cells; prepends a grid_coverage table and tolerates partially-swept archives")
		journalFlag = flag.String("journal", "", "directory of *.journal.jsonl execution journals (palsweep/palsim -journal) to merge into cross-shard tables")
		slowest     = flag.Int("slowest", 5, "with -journal: how many slowest tasks to rank")
	)
	flag.Parse()
	if *in == "" && *journalFlag == "" {
		fatal(fmt.Errorf("-in is required (point it at a palsweep -metrics directory or a -store directory), unless -journal is given"))
	}
	if err := export.CheckFormat(*format); err != nil {
		fatal(err)
	}
	if *journalFlag != "" {
		runJournal(*journalFlag, *slowest, *format, *outDir)
		if *in == "" {
			return
		}
	}

	arch := readArchives(*in, *decisions)
	payloads := arch.Payloads
	if *gridFlag != "" {
		cells, err := expandGridCells(*gridFlag)
		if err != nil {
			fatal(err)
		}
		have := arch.Keys
		for _, p := range payloads {
			if p.Key != "" {
				have[p.Key] = true
			}
		}
		if err := export.WriteTable(gridCoverageTable(cells, have), *format, *outDir); err != nil {
			fatal(err)
		}
		if len(payloads) == 0 {
			// A partial (or not-yet-started) sweep is exactly what -grid
			// exists to report; the coverage table above already counted
			// every missing cell, so an empty archive is not an error.
			fmt.Fprintf(os.Stderr, "palreport: no payloads in %q yet; coverage table lists every expected cell as missing or store-only\n", *in)
			return
		}
	}
	if len(payloads) == 0 {
		fatal(fmt.Errorf("no payloads found in %q", *in))
	}

	base := payloads[0]
	if *baseline != "" {
		base = nil
		for _, p := range payloads {
			if p.Name == *baseline {
				base = p
				break
			}
		}
		if base == nil {
			var names []string
			for _, p := range payloads {
				names = append(names, p.Name)
			}
			fatal(fmt.Errorf("baseline %q not among loaded payloads %v", *baseline, names))
		}
	}

	for _, t := range []*experiments.Table{
		summaryTable(payloads),
		comparisonTable(payloads, base),
		cdfTable(payloads),
	} {
		if err := export.WriteTable(t, *format, *outDir); err != nil {
			fatal(err)
		}
	}
	if *decisions {
		if len(arch.Traces) == 0 {
			fatal(fmt.Errorf("-decisions: no decision traces found in %q (enable the spec's decisions block and re-archive)", *in))
		}
		if err := export.WriteTable(decisionsTable(arch.Traces), *format, *outDir); err != nil {
			fatal(err)
		}
	}
}

// readArchives resolves the -in argument to payloads (and, with
// -decisions, traces) in one pass over its files and stores. Every
// token matching no payload file is an error, named together; a token
// without decision traces is not, since -decisions rides on the same -in
// as the metrics tables and a mixed archive directory is the common
// case. Token order is preserved — the first payload is the default
// baseline, so a file named before a store must stay first.
func readArchives(in string, decisions bool) *cli.Archives {
	arch, err := cli.ReadArchives(in, cli.Want{Payloads: true, Traces: decisions})
	if err != nil {
		fatal(err)
	}
	if len(arch.PayloadMisses) > 0 {
		fatal(fmt.Errorf("-in: %s", strings.Join(arch.PayloadMisses, "; ")))
	}
	for _, sr := range arch.Stores {
		if sr.Stale {
			// The root held only older-codec trees; say so instead of
			// letting the generic "no payloads found" hide the version
			// mismatch.
			fmt.Fprintf(os.Stderr, "palreport: store %s holds no objects for the current codec (older-version trees present; re-run the sweeps, then `palstore gc` reclaims the old tree)\n", sr.Dir)
		}
		if sr.NoPayload > 0 {
			fmt.Fprintf(os.Stderr, "palreport: store %s: skipped %d results without telemetry (re-run them with metrics enabled to tabulate)\n", sr.Dir, sr.NoPayload)
		}
	}
	return arch
}

// decisionsTable renders one summary row per archived decision trace:
// how many coalesced decision records the run produced, what they
// contain, and whether the ring dropped any. Full timelines and per-job
// "why" views are palexplain's job.
func decisionsTable(traces []*decision.Trace) *experiments.Table {
	t := &experiments.Table{
		Name:  "decisions_summary",
		Title: "per-run decision-trace summary (from archived traces)",
		Header: []string{"run", "policy", "sched", "records", "rounds",
			"placements", "preemptions", "migrations", "truncated"},
	}
	for _, tr := range traces {
		placements, preemptions, migrations := 0, 0, 0
		for _, rec := range tr.Records {
			placements += len(rec.Placements)
			preemptions += len(rec.Preemptions)
			for _, p := range rec.Placements {
				if p.Migrated {
					migrations++
				}
			}
		}
		truncated := ""
		if tr.Truncated {
			truncated = fmt.Sprintf("yes (%d dropped)", tr.Dropped)
		}
		t.AddRowf(tr.Name, tr.Policy, tr.Sched, len(tr.Records), tr.Rounds,
			placements, preemptions, migrations, truncated)
		if key := tr.Key; key != "" {
			if len(key) > 16 {
				key = key[:16]
			}
			t.Note("%s: key %s", tr.Name, key)
		}
	}
	return t
}

// gridCell is one expected cell of a -grid expansion: the cell's name
// and its content-hash cache key, the identity archived results are
// matched against.
type gridCell struct {
	name string
	key  string
}

// expandGridCells resolves the -grid argument (files, directories or
// globs of scenario specs) to the expected cells, in each spec's
// deterministic expansion order. Cells are built — not just parsed — so
// their keys are the exact content hashes a sweep would store under.
func expandGridCells(arg string) ([]gridCell, error) {
	paths, err := export.ExpandFileArgs(arg, ".json")
	if err != nil {
		return nil, fmt.Errorf("-grid: %w", err)
	}
	var cells []gridCell
	for _, path := range paths {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			return nil, err
		}
		expanded, err := spec.ExpandGrid()
		if err != nil {
			return nil, err
		}
		for _, c := range expanded {
			b, err := c.Build()
			if err != nil {
				return nil, err
			}
			cells = append(cells, gridCell{name: c.Name, key: b.Key()})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("-grid: no scenario specs in %q", arg)
	}
	return cells, nil
}

// gridCoverageTable renders one row per expected grid cell, in
// expansion order, marking each present or MISSING. Missing cells are
// counted in the notes, never dropped — the reporting mirror of the
// engine's explicit-truncation invariant.
func gridCoverageTable(cells []gridCell, have map[string]bool) *experiments.Table {
	t := &experiments.Table{
		Name:   "grid_coverage",
		Title:  "grid cell coverage (expected cells vs archived results)",
		Header: []string{"cell", "key", "status"},
	}
	missing := 0
	for _, c := range cells {
		status := "present"
		if !have[c.key] {
			status = "MISSING"
			missing++
		}
		t.AddRowf(c.name, c.key[:16], status)
	}
	t.Note("%d of %d grid cells present, %d missing", len(cells)-missing, len(cells), missing)
	if missing > 0 {
		t.Note("run the remaining shards into the shared store (palsweep -shard i/n -store ...) and re-report")
	}
	return t
}

// meanUtil averages the archived utilization series; falls back to the
// aggregate utilization when the series was not recorded.
func meanUtil(p *metrics.Payload) float64 {
	if s, ok := p.SeriesByName(metrics.SeriesUtilization); ok && len(s.Values) > 0 {
		return stats.Mean(s.Values)
	}
	return p.Aggregates.Utilization
}

// summaryTable renders one row per payload.
func summaryTable(payloads []*metrics.Payload) *experiments.Table {
	t := &experiments.Table{
		Name:  "metrics_summary",
		Title: "per-run telemetry summary (from archived payloads)",
		Header: []string{"run", "policy", "sched", "measured", "avg_jct_s", "p50_jct_s",
			"p90_jct_s", "p99_jct_s", "mean_wait_s", "util_pct", "truncated"},
	}
	for _, p := range payloads {
		a := p.Aggregates
		truncated := ""
		if p.Truncated {
			truncated = fmt.Sprintf("yes (%d unfinished)", p.Unfinished)
		}
		t.AddRowf(p.Name, p.Policy, p.Sched, a.Measured, a.AvgJCT, a.P50JCT,
			a.P90JCT, a.P99JCT, a.MeanWait, 100*meanUtil(p), truncated)
		if key := p.Key; key != "" {
			// Hand-edited payloads may carry keys shorter than the usual
			// 64-hex digest; never slice past what is there.
			if len(key) > 16 {
				key = key[:16]
			}
			t.Note("%s: key %s", p.Name, key)
		}
	}
	return t
}

// comparisonTable reports each run's improvement over the baseline on
// the lower-is-better metrics, plus the utilization delta.
func comparisonTable(payloads []*metrics.Payload, base *metrics.Payload) *experiments.Table {
	t := &experiments.Table{
		Name:  "metrics_vs_baseline",
		Title: fmt.Sprintf("improvement vs baseline %q (positive = better)", base.Name),
		Header: []string{"run", "policy", "avg_jct_impr_pct", "p50_jct_impr_pct",
			"p99_jct_impr_pct", "mean_wait_impr_pct", "util_delta_pct"},
	}
	b := base.Aggregates
	for _, p := range payloads {
		if p == base {
			continue
		}
		a := p.Aggregates
		t.AddRowf(p.Name, p.Policy,
			100*stats.Improvement(b.AvgJCT, a.AvgJCT),
			100*stats.Improvement(b.P50JCT, a.P50JCT),
			100*stats.Improvement(b.P99JCT, a.P99JCT),
			100*stats.Improvement(b.MeanWait, a.MeanWait),
			100*(meanUtil(p)-meanUtil(base)))
	}
	t.Note("baseline: %s (%s/%s), avg JCT %.1f s, p99 %.1f s",
		base.Name, base.Policy, base.Sched, b.AvgJCT, b.P99JCT)
	return t
}

// cdfTable reads each payload's archived JCT histogram at fixed
// percentiles, one column per run.
func cdfTable(payloads []*metrics.Payload) *experiments.Table {
	header := []string{"jct_percentile"}
	for _, p := range payloads {
		header = append(header, p.Name+"_s")
	}
	t := &experiments.Table{
		Name:   "metrics_jct_cdf",
		Title:  "JCT distribution comparison (binned quantiles from archived histograms)",
		Header: header,
	}
	for _, pct := range cdfPercentiles {
		row := []interface{}{fmt.Sprintf("p%g", pct)}
		for _, p := range payloads {
			if p.JCTHist == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, p.JCTHist.Quantile(pct))
		}
		t.AddRowf(row...)
	}
	return t
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "palreport: %v\n", err)
	os.Exit(2)
}
