package export

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sampleResult builds a hand-crafted result exercising every archived
// surface: done/running/never-started jobs, preserved allocations,
// measured aliasing, place times and truncation.
func sampleResult() *sim.Result {
	jobs := []*sim.Job{
		{
			Spec:      trace.JobSpec{ID: 0, Model: "resnet50", Class: 1, Arrival: 0, Demand: 2, Work: 600},
			Remaining: 0, Attained: 1320, Started: true, FirstRun: 0,
			Finish: 660.5, Done: true, Preemptions: 1, Migrations: 1,
			PrevAlloc: []cluster.GPUID{0, 1},
		},
		{
			// Still holding GPUs (a truncated run's survivor).
			Spec:      trace.JobSpec{ID: 1, Model: "gpt2", Class: 2, Arrival: 30, Demand: 1, Work: 1e6},
			Remaining: 9.5e5, Attained: 50000, Started: true, FirstRun: 300,
			Alloc: []cluster.GPUID{3},
		},
		{
			// Arrived, never scheduled.
			Spec: trace.JobSpec{ID: 2, Model: "a3c", Class: 0, Arrival: 60, Demand: 4, Work: 100},
			// Remaining intentionally equals Work.
			Remaining: 100,
		},
	}
	res := &sim.Result{
		Jobs:                  jobs,
		Measured:              []*sim.Job{jobs[0]},
		Makespan:              660.5,
		Utilization:           0.3341,
		ProductiveUtilization: 0.2123,
		Rounds:                5,
		PlaceTimes:            []float64{1.25e-5, 3e-6},
		Truncated:             true,
		Unfinished:            2,
	}
	return res
}

// TestResultCodecRoundTrip: decode(encode(res)) must deep-equal res —
// including nil-versus-empty slice distinctions and the Measured slice
// aliasing Jobs — and re-encoding must reproduce identical bytes.
func TestResultCodecRoundTrip(t *testing.T) {
	res := sampleResult()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("round trip diverged:\n in  %+v\nout %+v", res, got)
	}
	// Measured must alias the decoded Jobs, not copy them.
	if got.Measured[0] != got.Jobs[0] {
		t.Error("Measured[0] does not alias Jobs[0] after decode")
	}
	var again bytes.Buffer
	if err := EncodeResult(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("codec is not a fixed point: re-encoding changed bytes")
	}
}

// TestResultCodecPreservesNilVersusEmpty: a minimal result with every
// optional slice nil must come back with them nil (reflect.DeepEqual
// distinguishes nil from empty, and so do the byte-identity suites).
func TestResultCodecPreservesNilVersusEmpty(t *testing.T) {
	res := &sim.Result{
		Jobs:   []*sim.Job{{Spec: trace.JobSpec{ID: 0, Demand: 1, Work: 1}, Done: true, Started: true, Finish: 1}},
		Rounds: 1,
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Measured != nil || got.PlaceTimes != nil {
		t.Errorf("nil slices became non-nil: %+v", got)
	}
	if got.Jobs[0].Alloc != nil || got.Jobs[0].PrevAlloc != nil {
		t.Error("nil allocations became non-nil")
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatal("minimal result did not round-trip")
	}
}

// TestResultCodecMetricsPayload: an attached collector payload is
// embedded and resurfaces through metrics.FromResult on the decoded
// result.
func TestResultCodecMetricsPayload(t *testing.T) {
	res := sampleResult()
	payload := &metrics.Payload{
		Name: "codec-test", Policy: "pal", Sched: "fifo",
		IntervalRounds: 1, RoundSec: 300, TimeBase: 0,
		Series: []metrics.SeriesData{{
			Name: metrics.SeriesGPUsInUse, Rounds: []int64{0, 1}, Values: []float64{2, 3},
		}},
		Truncated: true, Unfinished: 2,
	}
	res.Metrics = metrics.NewArchivedSink(payload)
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metrics.FromResult(got), payload) {
		t.Fatalf("payload did not round-trip: %+v", metrics.FromResult(got))
	}
}

// TestResultCodecRejectsUnarchivableSink: a custom sink without a
// payload must fail encoding loudly, never drop telemetry silently.
func TestResultCodecRejectsUnarchivableSink(t *testing.T) {
	res := sampleResult()
	res.Metrics = opaqueSink{}
	if err := EncodeResult(&bytes.Buffer{}, res); err == nil ||
		!strings.Contains(err.Error(), "no extractable payload") {
		t.Fatalf("err = %v, want unarchivable-sink error", err)
	}
}

type opaqueSink struct{}

func (opaqueSink) ObserveRounds(sim.RoundObservation) {}
func (opaqueSink) FinishRun(*sim.Result)              {}

// TestResultCodecRejectsWrongVersion: an archive from any other codec
// revision must be refused with a version message, not misread.
func TestResultCodecRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(buf.Bytes(),
		[]byte(`"format":"pal-result/`+ResultFormatVersion+`"`),
		[]byte(`"format":"pal-result/v999"`), 1)
	if bytes.Equal(tampered, buf.Bytes()) {
		t.Fatal("tampering failed to find the format field")
	}
	if _, err := DecodeResult(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "codec version mismatch") {
		t.Fatalf("err = %v, want codec version mismatch", err)
	}
}

// TestResultCodecRejectsUnknownFields: extra fields (a future codec
// that forgot to bump, or a corrupted archive) fail loudly.
func TestResultCodecRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	tampered := reframed(t, buf.Bytes(), func(core []byte) []byte {
		return bytes.Replace(core, []byte(`"rounds":`), []byte(`"bogus_field": 1, "rounds":`), 1)
	})
	if _, err := DecodeResult(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v, want unknown field", err)
	}
}

// TestResultCodecRejectsBadMeasuredIndex: a measured index outside Jobs
// is corruption, not a job.
func TestResultCodecRejectsBadMeasuredIndex(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	tampered := reframed(t, buf.Bytes(), func(core []byte) []byte {
		if !bytes.Contains(core, []byte(`"measured":[0]`)) {
			t.Fatal("tampering failed to find the measured field")
		}
		return bytes.Replace(core, []byte(`"measured":[0]`), []byte(`"measured":[7]`), 1)
	})
	if _, err := DecodeResult(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}

// TestResultCodecRejectsMeasuredWithoutJobs: EncodeResult refuses a
// result with Measured jobs but no Jobs, so an archive claiming one —
// even with an empty measured list — is corruption, not a result that
// could never be archived again.
func TestResultCodecRejectsMeasuredWithoutJobs(t *testing.T) {
	archive := framedCore(`{"jobs":null,"measured":[]}` + "\n")
	if _, err := DecodeResult(bytes.NewReader(archive)); err == nil ||
		!strings.Contains(err.Error(), "no jobs") {
		t.Fatalf("err = %v, want measured-without-jobs error", err)
	}
}
