package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func shortPPS(t *testing.T) *PPSResult {
	t.Helper()
	r, err := RunPPS(PPSConfig{
		Shards:   2,
		Duration: 60 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkPPS(t *testing.T, r *PPSResult) {
	t.Helper()
	if r.SustainedPPS <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Forwarded+r.Misses != r.Processed {
		t.Fatalf("forwarded %d + misses %d != processed %d", r.Forwarded, r.Misses, r.Processed)
	}
	if r.Replayed+r.CacheDrop+uint64(r.Backlog) > r.Misses {
		t.Fatalf("cache outputs exceed misses: %+v", r)
	}
	if r.Processed > r.Offered {
		t.Fatalf("processed %d > offered %d", r.Processed, r.Offered)
	}
	if r.P99 == 0 || r.P50 > r.P99 {
		t.Fatalf("bad quantiles p50=%v p99=%v", r.P50, r.P99)
	}
}

func TestRunPPSSharded(t *testing.T) {
	checkPPS(t, shortPPS(t))
}

// TestRunPPSChurnAppliesFlowMods drives the engine with rule churn on
// and requires the conservation contract to survive it — plus proof
// that the churn actually ran (mods applied, none erroring).
func TestRunPPSChurnAppliesFlowMods(t *testing.T) {
	r, err := RunPPS(PPSConfig{
		Shards:      2,
		Duration:    80 * time.Millisecond,
		Seed:        7,
		FlowModRate: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPPS(t, r)
	if r.FlowMods == 0 {
		t.Error("churn applied no flow_mods")
	}
	if r.FlowModErrs != 0 {
		t.Errorf("%d flow_mod errors", r.FlowModErrs)
	}
}

func TestWritePPSCSV(t *testing.T) {
	a, b := shortPPS(t), shortPPS(t)
	var buf bytes.Buffer
	if err := WritePPSCSV(&buf, []*PPSResult{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "shards,") || !strings.HasSuffix(lines[0], ",flowmods") {
		t.Fatalf("unexpected header: %s", lines[0])
	}
	for _, row := range lines[1:] {
		if !strings.HasPrefix(row, "2,") || strings.Count(row, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("unexpected row %q:\n%s", row, buf.String())
		}
	}
}

// BenchmarkSustainedPPS is the whole-pipeline macro benchmark: each
// "iteration" is one full sustained run, and the reported pps / p99ms
// metrics are what BENCH_6.json gates. Run with -benchtime=1x.
func BenchmarkSustainedPPS(b *testing.B) {
	duration := 500 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	var last *PPSResult
	for i := 0; i < b.N; i++ {
		r, err := RunPPS(PPSConfig{Duration: duration, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SustainedPPS, "pps")
	b.ReportMetric(float64(last.P99.Nanoseconds())/1e6, "p99ms")
	b.ReportMetric(0, "ns/op") // wall time is the run duration, not a per-op cost
}

// BenchmarkSustainedPPSChurn is the mixed lookup+Apply macro benchmark:
// the same whole-pipeline sustained run, but with a control-plane
// goroutine strict-deleting and re-adding installed rules at 1000
// flow_mods/s while the producers hammer the serving path. Each mod
// travels in-band to its owning shard's control ring, so the other
// shards never even see the churn. BENCH_9.json gates the pps floor,
// p99 ceiling, and applied-flow_mod floor. Run with -benchtime=1x.
func BenchmarkSustainedPPSChurn(b *testing.B) {
	duration := 500 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	var last *PPSResult
	for i := 0; i < b.N; i++ {
		r, err := RunPPS(PPSConfig{Duration: duration, Seed: 7, FlowModRate: 1000})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last.FlowModErrs != 0 {
		b.Fatalf("%d flow_mod errors under churn", last.FlowModErrs)
	}
	b.ReportMetric(last.SustainedPPS, "pps")
	b.ReportMetric(float64(last.P99.Nanoseconds())/1e6, "p99ms")
	b.ReportMetric(float64(last.FlowMods), "flowmods")
	b.ReportMetric(0, "ns/op")
}
