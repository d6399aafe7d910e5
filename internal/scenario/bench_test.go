package scenario

import (
	"fmt"
	"testing"
)

// paperPlacers are the six placement policies the paper evaluates.
var paperPlacers = []string{"pal", "pm-first", "packed-sticky", "packed-non-sticky",
	"random-sticky", "random-non-sticky"}

// BenchmarkPaperPlacers times one whole run per paper placer on the
// paper's Synergy cell: 64×4 Longhorn GPUs, 500 Synergy jobs at 12
// jobs/hour, LAS. Trace, profile and binning are built before the
// timer; each iteration constructs fresh policies and simulates.
//
//	go test -bench=PaperPlacers -benchmem -run '^$' ./internal/scenario
func BenchmarkPaperPlacers(b *testing.B) {
	for _, policy := range paperPlacers {
		b.Run(policy, func(b *testing.B) {
			spec, err := Parse([]byte(fmt.Sprintf(`{
				"name": "paper-placers",
				"cluster": {"nodes": 64, "gpus_per_node": 4},
				"workload": {"source": "synergy", "num_jobs": 500, "jobs_per_hour": 12},
				"policy": {"name": %q},
				"sched": {"name": "las"}
			}`, policy)))
			if err != nil {
				b.Fatal(err)
			}
			built, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := built.Run(); err != nil { // warm the binning memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := built.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
