package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// inUseResult wraps a gpus_in_use series (values for rounds 0..n-1) in
// a result the way a store-loaded run carries its payload.
func inUseResult(values []float64, dropped int64) *sim.Result {
	rounds := make([]int64, len(values))
	for i := range rounds {
		rounds[i] = int64(i)
	}
	p := &metrics.Payload{
		IntervalRounds: 1,
		RoundSec:       300,
		TimeBase:       100,
		Series: []metrics.SeriesData{{
			Name: metrics.SeriesGPUsInUse, Rounds: rounds, Values: values, Dropped: dropped,
		}},
	}
	return &sim.Result{Metrics: metrics.NewArchivedSink(p)}
}

// TestInUseDeciles: zero samples (idle-gap rounds) are skipped rather
// than averaged in, and a run without the series, whose ring dropped
// samples, or whose archived series is ragged is an error instead of a
// silently shorter series (or a panic).
func TestInUseDeciles(t *testing.T) {
	// Rounds 0..10, one per decile (the last two share the tenth);
	// rounds 3 and 4 are an idle gap.
	values := []float64{10, 11, 12, 0, 0, 15, 16, 17, 18, 19, 20}
	got, err := InUseDeciles(inUseResult(values, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10", "11", "12", "-", "-", "15", "16", "17", "18", "20"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deciles = %v, want %v", got, want)
	}

	// A leading and trailing idle gap does not stretch the span.
	padded := append(append([]float64{0, 0}, values...), 0, 0, 0)
	if got, err := InUseDeciles(inUseResult(padded, 0)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("padded deciles = %v (err %v), want %v", got, err, want)
	}

	errCases := map[string]*sim.Result{
		"no payload": {},
		"no series": {Metrics: metrics.NewArchivedSink(&metrics.Payload{
			Series: []metrics.SeriesData{{Name: metrics.SeriesQueueDepth}},
		})},
		"dropped samples": inUseResult(values, 3),
		"ragged series": {Metrics: metrics.NewArchivedSink(&metrics.Payload{
			Series: []metrics.SeriesData{{Name: metrics.SeriesGPUsInUse, Rounds: []int64{0, 1}, Values: []float64{4}}},
		})},
	}
	for name, res := range errCases {
		if got, err := InUseDeciles(res); err == nil {
			t.Errorf("%s: deciles %v, want an error", name, got)
		} else if name == "dropped samples" && !strings.Contains(err.Error(), "dropped 3") {
			t.Errorf("%s: error %q does not name the drop", name, err)
		}
	}
}
