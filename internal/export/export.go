// Package export renders experiment artifacts to interchange formats:
// CSV for plotting, JSON for archival, and Markdown for EXPERIMENTS.md.
// A reproduction is only useful if its numbers can leave the terminal.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TableCSV writes a Table as CSV: header row, then data rows. Notes are
// emitted as trailing comment-style rows prefixed with "#" in the first
// column so spreadsheet imports keep them visible but separable.
func TableCSV(w io.Writer, t *experiments.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("export: header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("export: row: %w", err)
		}
	}
	for _, n := range t.Notes {
		rec := make([]string, len(t.Header))
		if len(rec) == 0 {
			rec = []string{""}
		}
		rec[0] = "# " + n
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("export: note: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the JSON shape of a Table.
type tableJSON struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// TableJSON writes a Table as indented JSON.
func TableJSON(w io.Writer, t *experiments.Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{
		Name:   t.Name,
		Title:  t.Title,
		Header: t.Header,
		Rows:   t.Rows,
		Notes:  t.Notes,
	})
}

// TableMarkdown writes a Table as a GitHub-flavored Markdown table with
// the title as a heading and notes as a bullet list. This is the format
// EXPERIMENTS.md records results in.
func TableMarkdown(w io.Writer, t *experiments.Table) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.Name, t.Title)
	b.WriteString("| " + strings.Join(escapeCells(t.Header), " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(escapeCells(row), " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeCells protects pipe characters inside Markdown cells.
func escapeCells(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return out
}

// tableFormat is one output format a table renders to: the file
// extension WriteTable uses under -out, and the renderer.
type tableFormat struct {
	ext    string
	render func(io.Writer, *experiments.Table) error
}

// tableFormats are the formats every CLI's -format flag accepts.
var tableFormats = map[string]tableFormat{
	"text": {"txt", func(w io.Writer, t *experiments.Table) error {
		_, err := io.WriteString(w, t.String())
		return err
	}},
	"csv":  {"csv", TableCSV},
	"md":   {"md", TableMarkdown},
	"json": {"json", TableJSON},
}

// CheckFormat rejects a -format value WriteTable cannot render. CLIs
// call it before running anything: a bad format discovered after a
// full-scale sweep would throw minutes of simulation away.
func CheckFormat(format string) error {
	if _, ok := tableFormats[format]; !ok {
		return fmt.Errorf("unknown format %q (want text, csv, md or json)", format)
	}
	return nil
}

// WriteTable writes one table in format to stdout or, with outDir set,
// to <outDir>/<t.Name>.<ext> (txt, csv, md or json). A table name that
// is not a single path element is an error before anything is written,
// so no name can place a file outside outDir.
func WriteTable(t *experiments.Table, format, outDir string) error {
	f, ok := tableFormats[format]
	if !ok {
		return CheckFormat(format)
	}
	if outDir == "" {
		return f.render(os.Stdout, t)
	}
	if err := checkBase(t.Name); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(outDir, t.Name+"."+f.ext), func(w io.Writer) error { return f.render(w, t) })
}

// resultJSON is the archival shape of one simulation result. Truncation
// is part of the archival record: a run that stopped at the MaxRounds
// cap reports metrics over completed jobs only, and an archived result
// must say so. A statistic over no job is null, as the text outputs
// print "-": the JCT and wait fields when nothing was measured, the
// makespan when no job completed.
type resultJSON struct {
	Jobs        int      `json:"jobs"`
	Measured    int      `json:"measured"`
	AvgJCT      *float64 `json:"avg_jct_sec"`
	P50JCT      *float64 `json:"p50_jct_sec"`
	P99JCT      *float64 `json:"p99_jct_sec"`
	MeanWait    *float64 `json:"mean_wait_sec"`
	Makespan    *float64 `json:"makespan_sec"`
	Utilization float64  `json:"utilization"`
	Rounds      int      `json:"rounds"`
	Truncated   bool     `json:"truncated,omitempty"`
	Unfinished  int      `json:"unfinished,omitempty"`
}

// ResultJSON writes the aggregate metrics of a simulation result.
func ResultJSON(w io.Writer, res *sim.Result) error {
	num := func(v float64) *float64 { return &v }
	out := resultJSON{
		Jobs:        len(res.Jobs),
		Measured:    len(res.Measured),
		Utilization: res.Utilization,
		Rounds:      res.Rounds,
		Truncated:   res.Truncated,
		Unfinished:  res.Unfinished,
	}
	if jcts := res.JCTs(); len(jcts) > 0 {
		out.AvgJCT = num(stats.Mean(jcts))
		out.P50JCT = num(stats.Percentile(jcts, 50))
		out.P99JCT = num(stats.Percentile(jcts, 99))
		out.MeanWait = num(stats.Mean(res.Waits()))
	}
	if res.Unfinished < len(res.Jobs) {
		out.Makespan = num(res.Makespan)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
