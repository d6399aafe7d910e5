package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
)

// childEnv marks a re-executed test binary that should run palstore's
// main instead of the tests.
const childEnv = "PALSTORE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palstore runs the CLI in a child process — this test binary
// re-executed into main — and returns its stdout, stderr and exit
// status.
func palstore(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// fillStore simulates a normal run and one in which no job completes,
// and stores each result under its spec's key. The wall-clock placement
// timings are dropped first, so every object's bytes (and the size info
// prints) are fixed.
func fillStore(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"../../examples/scenario/spec.json", "../testdata/nothing-completes.json"} {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		res.PlaceTimes = nil
		if err := st.Put(b.Key(), res); err != nil {
			t.Fatal(err)
		}
	}
}

// timestamps matches the RFC 3339 times info prints for creation and
// last access, the only wall-clock values in its output.
var timestamps = regexp.MustCompile(`\d{4}-\d\d-\d\dT\S+`)

// TestInfoAndExportOutput pins palstore's info and CSV export output
// for a normal run and a run in which nothing completes, whose
// statistics print as "-".
func TestInfoAndExportOutput(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"info normal", []string{"info", "-store", dir, "32296f0334e1"}, infoNormal},
		{"info nothing completes", []string{"info", "-store", dir, "a7fd944ca439"}, infoNothing},
		{"export csv", []string{"export", "-store", dir, "-format", "csv"}, exportCSV},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := palstore(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if got := timestamps.ReplaceAllString(out, "TIME"); got != tc.want {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

const infoNormal = `key          32296f0334e1442fe007733bae55f489ce0c527c4410af0312b52b67b495555b
kind         result
size         99593 bytes
created      TIME
last access  TIME
run          diurnal-pal-demo (policy pal, sched fifo)
payload      metrics
jobs         120 (120 measured)
rounds       288
avg JCT      10594.8 s
p99 JCT      58931.7 s
makespan     86154.0 s (23.93 h)
utilization  30.11%
`

const infoNothing = `key          a7fd944ca43904a57079c486536875fb0cb1dbc55eb5ed9648815b75c9fd4143
kind         result
size         806 bytes
created      TIME
last access  TIME
run          (no telemetry archived)
payload      -
jobs         2 (0 measured)
rounds       2
TRUNCATED    2 jobs unfinished; metrics cover completed jobs only
avg JCT      -
p99 JCT      -
makespan     -
utilization  0.00%
`

const exportCSV = `key,run,policy,sched,jobs,measured,avg_jct_s,p50_jct_s,p99_jct_s,mean_wait_s,util_pct,rounds,truncated
32296f0334e1442f,diurnal-pal-demo,pal,fifo,120,120,1.059e+04,5729,5.893e+04,189.9,30.11,288,
a7fd944ca43904a5,-,-,-,2,0,-,-,-,-,0,2,yes (2 unfinished)
`
