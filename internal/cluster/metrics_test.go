package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStats is a fixed, fully populated router snapshot: every
// linerouter_* family present, a backend name needing label escaping,
// both SLO windows, a count for every journal kind and non-trivial
// cumulative buckets. Changing the exposition format intentionally
// requires regenerating testdata/router_metrics.prom with -update and
// reviewing the diff.
func goldenStats() Stats {
	counts := (*journal.Journal)(nil).Counts()
	for i, k := range journal.Kinds() {
		counts[k.String()] = int64(i * 3)
	}
	return Stats{
		Backends: []BackendStats{
			{
				Name:      "http://10.0.0.1:8080",
				Available: true,
				Requests:  42, Failures: 3, ProbeFails: 1, Quarantines: 0,
				Latency: telemetry.HistogramSnapshot{
					Count: 42,
					Sum:   0.1234567,
					Buckets: map[string]int64{
						"0.0001": 0, "0.00025": 2, "0.0005": 9, "0.001": 20,
						"0.0025": 31, "0.005": 38, "0.01": 40, "0.025": 41,
						"0.05": 41, "0.1": 41, "0.25": 42, "0.5": 42,
						"1": 42, "2.5": 42, "5": 42, "+Inf": 42,
					},
				},
			},
			{
				Name:        `http://odd"name\x:9`, // exercises label escaping
				Quarantined: true,
				BreakerOpen: true,
				Requests:    5, Failures: 5, ProbeFails: 4, Quarantines: 2,
				Latency: telemetry.HistogramSnapshot{
					Count:   5,
					Sum:     12.5,
					Buckets: map[string]int64{"0.5": 0, "1": 1, "2.5": 3, "+Inf": 5},
				},
			},
		},
		Proxied:      47,
		Retries:      6,
		ReplicaReads: 2,
		ProxyErrors:  1,
		WarmRuns:     3,
		WarmKeys:     128,
		WarmErrors:   1,
		SLO: SLOStats{
			Objective:            0.99,
			LatencyBudgetSeconds: 0.25,
			Windows: []SLOWindow{
				{Window: "5m", Requests: 40, ErrorRate: 0.025, ErrorBurnRate: 2.5, SlowRate: 0.05, LatencyBurnRate: 5},
				{Window: "1h", Requests: 47, ErrorRate: 1.0 / 47, ErrorBurnRate: 100.0 / 47, SlowRate: 0, LatencyBurnRate: 0},
			},
		},
		JournalEvents: counts,
		Tracer: telemetry.TracerStats{
			RequestsSeen: 47, Sampled: 47, Finished: 45,
			SpansDropped: 2, Evicted: 7, Buffered: 38,
			TruncatedTraces: 1,
		},
	}
}

// TestRouterPrometheusGolden pins the router's text exposition byte
// for byte, and requires two renders of the same snapshot to agree.
func TestRouterPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	writePrometheus(&buf, goldenStats())
	path := filepath.Join("testdata", "router_metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden %s (regenerate with -update and review):\ngot:\n%s", path, buf.String())
	}

	var again bytes.Buffer
	writePrometheus(&again, goldenStats())
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same snapshot differ — unstable ordering")
	}

	// Every journal kind gets a counter sample, even at zero.
	for _, k := range journal.Kinds() {
		if !strings.Contains(buf.String(), `linerouter_journal_events_total{kind="`+k.String()+`"}`) {
			t.Errorf("exposition missing journal counter for kind %q", k)
		}
	}
}
