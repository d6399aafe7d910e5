package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func sampleTable() *experiments.Table {
	t := &experiments.Table{
		Name:   "t1",
		Title:  "sample",
		Header: []string{"policy", "jct"},
	}
	t.AddRow("PAL", "1.23")
	t.AddRow("Tire|sias", "2.34") // pipe needs Markdown escaping
	t.Note("a note")
	return t
}

func TestTableCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := TableCSV(&buf, sampleTable()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 2 rows + 1 note
		t.Fatalf("records = %d, want 4", len(records))
	}
	if records[0][0] != "policy" || records[1][0] != "PAL" {
		t.Errorf("unexpected records %v", records[:2])
	}
	if !strings.HasPrefix(records[3][0], "# ") {
		t.Errorf("note row = %v", records[3])
	}
}

func TestTableJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := TableJSON(&buf, sampleTable()); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name string     `json:"name"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "t1" || len(got.Rows) != 2 {
		t.Errorf("decoded %+v", got)
	}
}

func TestTableMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := TableMarkdown(&buf, sampleTable()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"### t1", "| policy | jct |", "Tire\\|sias", "- a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q:\n%s", want, s)
		}
	}
}

func runSample(t *testing.T) *sim.Result {
	t.Helper()
	spec := &scenario.Spec{
		Name:     "sia-1 pal",
		Workload: scenario.WorkloadSpec{Source: "sia-philly", Workload: 1},
		Policy:   scenario.PolicySpec{Name: "pal"},
	}
	spec.Normalize()
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := built.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultJSON(t *testing.T) {
	res := runSample(t)
	var buf bytes.Buffer
	if err := ResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["jobs"].(float64) != 160 {
		t.Errorf("jobs = %v", got["jobs"])
	}
	if got["avg_jct_sec"].(float64) <= 0 {
		t.Error("avg JCT not positive")
	}
}
