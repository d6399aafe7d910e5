// Command palexplain renders decision traces — the "why" behind a run's
// scheduling and placement outcomes — as human-readable timelines,
// without re-running a single simulation for archived sources. It is the
// explainability half of the observability stack: internal/metrics
// records what happened (series, histograms), internal/decision records
// why (scheduler order, attained-service ceilings, placement score
// decompositions, preemptions), and palexplain is the renderer.
//
// Usage:
//
//	palexplain -scenario spec.json                 # live run, decisions force-enabled
//	palexplain -in out/                            # archived *.decisions.json (palsim/palsweep -metrics)
//	palexplain -in results/.palstore               # traces embedded in a result store
//	palexplain -in out/ -job 17                    # one job's "why" timeline
//	palexplain -scenario spec.json -format md -out tables/
//
// Without -job, each trace renders as a decision timeline: one row per
// coalesced decision record — a scheduling decision and the span of
// rounds it stayed in force — with a "changes" column diffing it against
// the previous record (starts, resumes, migrations, preemptions,
// completions). With -job, the timeline narrows to the records that
// mention the job, annotated with its queue position, ceiling, and the
// Equation-1 decomposition (locality × PM score) of every placement it
// received.
//
// A -scenario run force-enables the spec's decisions block (with a
// re-Normalize, so the run cache-keys exactly like a file that enabled
// it). -in tokens may be trace files, directories, globs, or result-store
// directories, read by the archive reader palreport shares
// (internal/cli); stores are read with Peek, so explaining never
// perturbs GC recency. Formats and -out go through the table writer
// every CLI shares (export.WriteTable); under -out, a trace name that
// repeats (two archives of one spec) gets a key suffix rather than
// overwriting the earlier file.
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
	"repro/internal/scenario"
)

func main() {
	var (
		in       = flag.String("in", "", "comma-separated trace files, directories or globs (*.decisions.json), or result-store directories (palsweep -store)")
		scenPath = flag.String("scenario", "", "run a declarative scenario spec (JSON) live with decision recording force-enabled, then explain it")
		job      = flag.Int("job", -1, "narrow to one job ID: its per-record \"why\" timeline (queue position, ceiling, placement scores)")
		format   = flag.String("format", "text", "output format: text, csv, md, json")
		outDir   = flag.String("out", "", "write one file per table into this directory instead of stdout")
	)
	flag.Parse()
	if err := export.CheckFormat(*format); err != nil {
		fatal(err)
	}
	if (*in == "") == (*scenPath == "") {
		fatal(fmt.Errorf("exactly one of -in (archived traces) or -scenario (live run) is required"))
	}

	var traces []*decision.Trace
	if *scenPath != "" {
		traces = []*decision.Trace{runScenario(*scenPath)}
	} else {
		traces = readTraces(*in)
		if len(traces) == 0 {
			fatal(fmt.Errorf("no decision traces found in %q (archive them with palsim/palsweep -metrics on a spec with decisions enabled, or palsweep -store)", *in))
		}
	}

	if err := writeTables(traces, *job, *format, *outDir); err != nil {
		fatal(err)
	}
}

// writeTables renders one table per trace — its timeline, or with job
// >= 0 that job's "why" timeline. Under outDir each table is one file,
// and a table name that repeats (two archives of one spec) gets a key
// suffix instead of overwriting the earlier file.
func writeTables(traces []*decision.Trace, job int, format, outDir string) error {
	var names export.UniqueNames
	for _, tr := range traces {
		var t *experiments.Table
		if job >= 0 {
			t = jobTable(tr, job)
		} else {
			t = timelineTable(tr)
		}
		if outDir != "" {
			t.Name = names.Name(t.Name, tr.Key)
		}
		if err := export.WriteTable(t, format, outDir); err != nil {
			return err
		}
	}
	return nil
}

// runScenario executes a spec live with decision recording on and
// returns its trace.
func runScenario(path string) *decision.Trace {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		fatal(err)
	}
	// Force-enable like palsim's -metrics: re-Normalize so the spec
	// canonicalizes — and cache-keys — exactly like a file that asked for
	// decisions itself.
	spec.Decisions.Enabled = true
	spec.Normalize()
	built, err := spec.Build()
	if err != nil {
		fatal(err)
	}
	res, err := built.Run()
	if err != nil {
		fatal(err)
	}
	tr := decision.FromResult(res)
	if tr == nil {
		fatal(fmt.Errorf("scenario %s: run produced no decision trace", spec.Name))
	}
	t := *tr
	t.Key = built.Key()
	return &t
}

// readTraces resolves -in tokens to traces in one pass: trace files,
// directories or globs, and result-store roots (every stored result's
// embedded trace). A token matching no *.decisions.json is an error.
func readTraces(arg string) []*decision.Trace {
	arch, err := cli.ReadArchives(arg, cli.Want{Traces: true})
	if err != nil {
		fatal(err)
	}
	if len(arch.TraceMisses) > 0 {
		fatal(fmt.Errorf("-in: %s", strings.Join(arch.TraceMisses, "; ")))
	}
	for _, sr := range arch.Stores {
		if sr.NoTrace > 0 {
			fmt.Fprintf(os.Stderr, "palexplain: store %s: skipped %d results without decision traces (re-run them with decisions enabled to explain)\n", sr.Dir, sr.NoTrace)
		}
	}
	return arch.Traces
}

// timelineTable renders one trace as a round-level decision timeline:
// one row per coalesced record, with a diff against the previous record.
func timelineTable(tr *decision.Trace) *experiments.Table {
	t := &experiments.Table{
		Name:  "decisions_" + tr.Name,
		Title: fmt.Sprintf("decision timeline: %s (policy %s, sched %s)", tr.Name, tr.Policy, tr.Sched),
		Header: []string{"round", "t_h", "span", "running", "waiting",
			"placements", "preemptions", "changes"},
	}
	var prev *decision.Record
	for i := range tr.Records {
		rec := &tr.Records[i]
		t.AddRowf(rec.Round, rec.Start/3600, rec.Rounds, rec.Prefix, rec.Waiting,
			len(rec.Placements), len(rec.Preemptions), changes(prev, rec))
		prev = rec
	}
	annotate(t, tr)
	return t
}

// changes diffs a record against its predecessor: what decision changed
// to open the new span.
func changes(prev, rec *decision.Record) string {
	var parts []string
	for _, p := range rec.Placements {
		switch {
		case p.Started:
			parts = append(parts, fmt.Sprintf("start %d (%dg/%dn slow %.2f)", p.Job, p.GPUs, p.Nodes, p.Slowdown))
		case p.Migrated && p.Resumed:
			parts = append(parts, fmt.Sprintf("resume+migrate %d (%dg/%dn slow %.2f)", p.Job, p.GPUs, p.Nodes, p.Slowdown))
		case p.Resumed:
			parts = append(parts, fmt.Sprintf("resume %d", p.Job))
		case p.Migrated:
			parts = append(parts, fmt.Sprintf("migrate %d (%dg/%dn slow %.2f)", p.Job, p.GPUs, p.Nodes, p.Slowdown))
		}
	}
	for _, p := range rec.Preemptions {
		parts = append(parts, fmt.Sprintf("preempt %d (%dg)", p.Job, p.GPUs))
	}
	// Jobs that left the running set with neither a preemption nor a
	// reappearance completed during (or at the end of) the previous span.
	if prev != nil && len(prev.Order) > 0 && len(rec.Order) > 0 {
		now := make(map[int]bool, len(rec.Order))
		for _, e := range rec.Order {
			now[e.Job] = true
		}
		for _, e := range prev.Order[:prev.Prefix] {
			if !now[e.Job] {
				parts = append(parts, fmt.Sprintf("finish %d", e.Job))
			}
		}
	}
	if len(parts) == 0 {
		if prev == nil {
			return "(run start)"
		}
		return "-"
	}
	return strings.Join(parts, "; ")
}

// jobTable renders one job's "why" timeline: every record that mentions
// the job, with its queue position, ceiling, and placement scores.
func jobTable(tr *decision.Trace, job int) *experiments.Table {
	t := &experiments.Table{
		Name:  fmt.Sprintf("decisions_%s_job%d", tr.Name, job),
		Title: fmt.Sprintf("job %d timeline: %s (policy %s, sched %s)", job, tr.Name, tr.Policy, tr.Sched),
		Header: []string{"round", "t_h", "span", "state", "pos", "attained_h",
			"ceiling", "gpus", "nodes", "racks", "locality", "pm_score", "slowdown", "events"},
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
		if !rec.Mentions(job) {
			continue
		}
		state, pos, attained, ceiling := "-", "-", "-", "-"
		for idx, e := range rec.Order {
			if e.Job != job {
				continue
			}
			if e.Running {
				state = "running"
			} else {
				state = "waiting"
			}
			pos = fmt.Sprintf("%d/%d", idx+1, len(rec.Order))
			attained = fmt.Sprintf("%.2f", e.Attained/3600)
			ceiling = renderCeiling(e.Ceiling)
			break
		}
		gpus, nodes, racks, locality, pm, slowdown := "-", "-", "-", "-", "-", "-"
		var events []string
		for _, p := range rec.Placements {
			if p.Job != job {
				continue
			}
			gpus, nodes, racks = fmt.Sprint(p.GPUs), fmt.Sprint(p.Nodes), fmt.Sprint(p.Racks)
			locality = fmt.Sprintf("%.3f", p.Locality)
			pm = fmt.Sprintf("%.3f", p.PMScore)
			slowdown = fmt.Sprintf("%.3f", p.Slowdown)
			switch {
			case p.Started:
				events = append(events, "start")
			case p.Resumed:
				events = append(events, "resume")
			}
			if p.Migrated {
				events = append(events, "migrate")
			}
		}
		for _, p := range rec.Preemptions {
			if p.Job == job {
				events = append(events, "preempt")
			}
		}
		ev := strings.Join(events, "+")
		if ev == "" {
			ev = "-"
		}
		t.AddRowf(rec.Round, rec.Start/3600, rec.Rounds, state, pos, attained,
			ceiling, gpus, nodes, racks, locality, pm, slowdown, ev)
	}
	annotate(t, tr)
	return t
}

// renderCeiling maps the archived ceiling sentinels back to words.
func renderCeiling(v float64) string {
	switch v {
	case decision.CeilingNone:
		return "-"
	case decision.CeilingUnbounded:
		return "unbounded"
	case decision.CeilingExpired:
		return "expired"
	default:
		return fmt.Sprintf("%.0fs", v)
	}
}

// annotate appends the trace's provenance notes to a table.
func annotate(t *experiments.Table, tr *decision.Trace) {
	if tr.Truncated {
		t.Note("ring buffer dropped %d older records; the timeline covers the run's tail only", tr.Dropped)
	}
	if tr.RunTruncated {
		t.Note("run TRUNCATED at MaxRounds with %d jobs unfinished", tr.Unfinished)
	}
	t.Note("%d records covering %d rounds of %.0f s", len(tr.Records), tr.Rounds, tr.RoundSec)
	if tr.Key != "" {
		key := tr.Key
		if len(key) > 16 {
			key = key[:16]
		}
		t.Note("key %s", key)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "palexplain: %v\n", err)
	os.Exit(2)
}
