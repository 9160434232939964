package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared returns the metric names and units BENCHMARK.json declares
// under key ("end_to_end" or "per_layer").
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkReport fails unless rep is correct and reports exactly the declared
// metrics, with their units.
func checkReport(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not encode: %v", err)
	}
	var got []string
	for name, m := range rep.Metrics {
		got = append(got, name)
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("metric %s [%s] is not declared with that unit", name, m.Unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
	}
}

// tiny runs a workload at a scale where every campaign takes milliseconds.
func tiny(t *testing.T, workload string) params {
	t.Setenv("TMPDIR", t.TempDir())
	return params{workload: workload, seed: 7, seconds: 0.3, scale: 0.01}
}

func TestAnalysisWorkloads(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range []string{"paper-batch", "bs-multipath"} {
		t.Run(w, func(t *testing.T) {
			rep, err := runAnalysis(tiny(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, want)
		})
	}
}

// TestGoldenSeedZero runs bs-multipath at paper scale and seed 0, where
// the result must match the golden SHA-256.
func TestGoldenSeedZero(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale pass")
	}
	p := tiny(t, "bs-multipath")
	p.seed, p.scale, p.seconds = 0, 1, 0.01
	rep, err := runAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, declared(t, "end_to_end"))
}

func TestService(t *testing.T) {
	rep, err := runService(tiny(t, "service"))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, declared(t, "end_to_end"))
}

// TestTraced checks that the traced runs reproduce the Session bit for bit
// (a mismatch is a failed operation) and that their counts repeat exactly.
func TestTraced(t *testing.T) {
	want := declared(t, "per_layer")
	counts := []string{"proc.sim_runs", "proc.sim_accesses", "mbpta.rounds", "tac.groups", "tac.min_runs",
		"pub.inserted_accesses", "program.trace_accesses", "stats.peak_bytes",
		"proc.il1_conflict_frac", "proc.dl1_conflict_frac", "proc.replayed_frac"}
	for _, w := range []string{"bs-multipath", "service"} {
		t.Run(w, func(t *testing.T) {
			var first report
			for i := 0; i < 2; i++ {
				rep, err := runTraced(tiny(t, w))
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, rep, want)
				if i == 0 {
					first = rep
					continue
				}
				if w == "service" {
					continue // the traced writes depend on how many the window managed
				}
				for _, c := range counts {
					if rep.Metrics[c] != first.Metrics[c] {
						t.Errorf("%s: %v then %v", c, first.Metrics[c].Value, rep.Metrics[c].Value)
					}
				}
			}
		})
	}
}

// TestSummarize checks that read figures are medians across full
// one-second windows, so one slow window moves none of them.
func TestSummarize(t *testing.T) {
	var rs []read
	for w, ms := range [][]float64{{1, 1, 1}, {9, 9}, {1, 1, 1, 1}} {
		for i, v := range ms {
			rs = append(rs, read{at: float64(w) + float64(i+1)/10, ms: v})
		}
	}
	rs = append(rs, read{at: 3.5, ms: 50}) // in no full window
	if got, want := summarize(rs), (readStats{p50: 1, p90: 1, p99: 1, rps: 3}); got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	short := summarize([]read{{at: 0.25, ms: 2}, {at: 0.5, ms: 4}})
	if short.p50 != 2 || short.p99 != 4 || short.rps != 4 {
		t.Errorf("sub-second summary = %+v", short)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
