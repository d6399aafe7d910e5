package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metrics"
)

// SeriesCSV writes one metric series as CSV (round index, derived
// wall-clock time, value). Dropped ring-buffer samples are noted in a
// trailing comment row so a tail window is distinguishable from a
// complete series.
func SeriesCSV(w io.Writer, p *metrics.Payload, name string) error {
	s, ok := p.SeriesByName(name)
	if !ok {
		return fmt.Errorf("export: payload %q has no series %q", p.Name, name)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "time_sec", name}); err != nil {
		return err
	}
	times := s.Times(p)
	for i, r := range s.Rounds {
		if err := cw.Write([]string{
			strconv.FormatInt(r, 10),
			fmt.Sprintf("%.0f", times[i]),
			strconv.FormatFloat(s.Values[i], 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	if s.Dropped > 0 {
		if err := cw.Write([]string{fmt.Sprintf("# %d older samples dropped by the ring buffer", s.Dropped), "", ""}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PayloadJSON writes the full metric payload as indented JSON (the
// format metrics.Load reads back and palreport aggregates).
func PayloadJSON(w io.Writer, p *metrics.Payload) error {
	return p.Save(w)
}

// MetricsExt is the filename suffix of archived payloads; palreport
// discovers payloads in a directory by it.
const MetricsExt = ".metrics.json"

// WriteMetricsDir archives one run's telemetry into dir: the full
// payload as <base>.metrics.json plus one <base>.<series>.csv per
// recorded series. It creates dir as needed and returns the payload
// path. A base that is not a single path element is an error before
// anything is written.
func WriteMetricsDir(dir, base string, p *metrics.Payload) (string, error) {
	if err := checkBase(base); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	payloadPath := filepath.Join(dir, base+MetricsExt)
	if err := writeFile(payloadPath, func(w io.Writer) error { return PayloadJSON(w, p) }); err != nil {
		return "", err
	}
	for _, s := range p.Series {
		name := s.Name
		path := filepath.Join(dir, base+"."+name+".csv")
		if err := writeFile(path, func(w io.Writer) error { return SeriesCSV(w, p, name) }); err != nil {
			return "", err
		}
	}
	return payloadPath, nil
}
