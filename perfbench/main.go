// Command perfbench is pubtac's end-to-end benchmark. One invocation runs
// one named workload in this process, checks every output it produces, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, analysis_s,
// runs_per_s, read_p50_ms, read_p90_ms, peak_rss_mb); with
// -trace 1 a separate, single-worker traced run reports the per-layer
// metrics instead. All timings are host wall-clock time; simulated
// quantities (runs, cycles, pWCET) are deterministic and are checked, never
// timed. See README.md for the workloads and the layer map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 55 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pubtac/internal/pool"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations; an output-check mismatch
// counts as a failure of the operation that produced it.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) ok(good bool, format string, args ...any) bool {
	t.attempted++
	if !good {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return good
}

// merge adds the counts of another caller's tally.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

func (t *tally) report(metrics map[string]metric) report {
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// params are one invocation's settings.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64 // campaign scale: 1.0, the paper's size, except in tests
	spans    string  // where the traced run writes its spans ("" = nowhere)
}

func main() {
	var (
		p     params
		trace int
	)
	flag.StringVar(&p.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&p.seed, "seed", 0, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&p.spans, "spans", "", "file the traced run writes its spans to")
	flag.Parse()
	p.scale = 1
	if _, ok := workloads[p.workload]; !ok || p.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var (
		rep report
		err error
	)
	if trace == 1 {
		rep, err = runTraced(p)
	} else {
		rep, err = workloads[p.workload](p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workloads maps each workload name to its untraced end-to-end run.
var workloads = map[string]func(params) (report, error){
	"paper-batch":  runAnalysis,
	"bs-multipath": runAnalysis,
	"service":      runService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repeatSetup runs setup n times, tearing down every instance but the last,
// and returns the last instance with the median set-up time, so one slow
// start does not decide setup_s.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(ds), nil
}

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place), or 0 when xs is empty: a reported figure must encode as JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rssSampler records the process's peak resident set size (VmHWM) in
// one-second windows: it resets the kernel's high-water mark at the start
// of each window and reads it at the end. The heap peaks at each garbage
// collection, and how far it overshoots depends on the moment the collector
// starts, so a single run-long maximum is one extreme draw; the median
// window peak is the footprint the run keeps reaching.
type rssSampler struct {
	g     *pool.Group
	stop  chan struct{}
	peaks []float64 // MB, one per completed window
	err   error
}

// startRSS starts sampling; finish ends it.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.g, _ = pool.WithContext(context.Background())
	s.g.Go(func() error {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		s.err = resetPeakRSS()
		for s.err == nil {
			select {
			case <-s.stop:
				return nil
			case <-tick.C:
			}
			var mb float64
			if mb, s.err = peakRSSMB(); s.err == nil {
				s.peaks = append(s.peaks, mb)
				s.err = resetPeakRSS()
			}
		}
		return nil
	})
	return s
}

// finish stops sampling and returns the median window peak in MB, or the
// run-long peak when the run ended within its first window.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	_ = s.g.Wait() // the sampler reports through s.err
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return peakRSSMB()
	}
	return median(s.peaks), nil
}

// resetPeakRSS sets the process's VmHWM back to its current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
