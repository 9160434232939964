package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"pubtac"
	"pubtac/internal/pool"
)

// workers is every workload's simulation worker budget: the benchmark host
// has two cores.
const workers = 2

// readShare is the share of an analysis workload's measured seconds spent
// reading its result back; the passes get the rest.
const readShare = 0.2

// golden is the SHA-256 of each analysis workload's result JSON at seed 0
// and scale 1.0 — the repository's historical campaigns, which must stay
// bit-identical.
var golden = map[string]string{
	"paper-batch":  "8c194fba429cb67e8a374a2718e309ab0dae96d1ebfc8cb0caa318c747208778",
	"bs-multipath": "9e926067e71477181c10c6b1b4863d70fed8dba38d46ba7f284acc7402e32da3",
}

// analysisJobs returns an analysis workload's batch: all 11 Mälardalen
// benchmarks on their default inputs (paper-batch), or bs on all 16 of its
// input vectors (bs-multipath).
func analysisJobs(workload string) ([]pubtac.Job, error) {
	switch workload {
	case "paper-batch":
		return pubtac.BenchmarkJobs()
	case "bs-multipath":
		b, err := pubtac.Benchmark("bs")
		if err != nil {
			return nil, err
		}
		return []pubtac.Job{{Program: b.Program, Inputs: b.Inputs}}, nil
	}
	return nil, fmt.Errorf("%s is not an analysis workload", workload)
}

// sessionOptions are the analysis options of a workload: the seed salts
// every campaign, so each seed gives new campaigns on the same programs.
func sessionOptions(p params, nworkers int, streaming bool) []pubtac.Option {
	opts := []pubtac.Option{pubtac.WithScale(p.scale), pubtac.WithSeed(p.seed), pubtac.WithWorkers(nworkers)}
	if streaming {
		opts = append(opts, pubtac.WithStreamingEstimation(0))
	}
	return opts
}

// resultKey is the daemon's content address of a batch.
func resultKey(d *daemon, jobs []pubtac.Job, seed uint64) (string, error) {
	keys := make([]pubtac.Fingerprint, len(jobs))
	for i, j := range jobs {
		k, err := j.Key(seed)
		if err != nil {
			return "", err
		}
		keys[i] = k
	}
	return pubtac.AnalysisKey(d.srv.ConfigFingerprint(), keys...).String(), nil
}

func sha256hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// analysisSetup is what an analysis workload builds before its first timed
// pass: the session, the batch, and the daemon that serves the result.
type analysisSetup struct {
	sess *pubtac.Session
	jobs []pubtac.Job
	d    *daemon
	key  string
}

// runAnalysis is the untraced run of paper-batch and bs-multipath: one
// caller, closed loop, one Session.AnalyzeBatch pass at a time, then two
// closed-loop readers of the pass's result through the daemon's
// GET /v1/results/{key} for the last readShare of the measured seconds.
func runAnalysis(p params) (report, error) {
	opts := sessionOptions(p, workers, false)
	st, setupS, err := repeatSetup(9, func() (*analysisSetup, error) {
		jobs, err := analysisJobs(p.workload)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(opts, 0)
		if err != nil {
			return nil, err
		}
		key, err := resultKey(d, jobs, p.seed)
		if err != nil {
			d.close()
			return nil, err
		}
		return &analysisSetup{sess: pubtac.NewSession(opts...), jobs: jobs, d: d, key: key}, nil
	}, func(s *analysisSetup) { s.d.close() })
	if err != nil {
		return report{}, err
	}
	defer st.d.close()

	var (
		t     tally
		durs  []float64 // pass times
		rates []float64 // simulated runs per second of each pass
		ref   []byte
	)
	ctx := context.Background()
	rss := startRSS()
	start := time.Now()
	window := p.seconds * (1 - readShare)
	for {
		// Start another pass only while it would end about in time.
		el := time.Since(start).Seconds()
		if el >= window || (len(durs) > 0 && el+median(durs)/2 >= window) {
			break
		}
		t0 := time.Now()
		batch, err := st.sess.AnalyzeBatch(ctx, st.jobs)
		d := time.Since(t0).Seconds()
		if !t.ok(err == nil, "pass %d: %v", len(durs), err) {
			continue
		}
		body, err := batch.JSON()
		if !t.ok(err == nil, "pass %d: encoding: %v", len(durs), err) {
			continue
		}
		if ref == nil {
			ref = body
			if want := golden[p.workload]; p.seed == 0 && p.scale == 1 && want != "" {
				t.ok(sha256hex(body) == want, "%s seed 0: result sha256 %s, golden %s", p.workload, sha256hex(body), want)
			}
		} else if !t.ok(string(body) == string(ref), "pass %d: result differs from the first pass", len(durs)) {
			continue
		}
		runs := 0
		for _, r := range batch.All() {
			runs += r.RunsUsed
		}
		durs = append(durs, d)
		rates = append(rates, float64(runs)/d)
	}
	if ref == nil {
		_, _ = rss.finish()
		return t.report(nil), fmt.Errorf("no analysis pass succeeded")
	}

	// The daemon computes the same bytes for this key (the traced run
	// checks it), so the result is stored directly instead of recomputed.
	if err := st.d.store.Put(mustParse(st.key), ref); err != nil {
		return report{}, err
	}
	// Two readers keep both cores busy, as the service workload's reader and
	// writer do: alone, one reader would leave a core idle between requests,
	// and its tail would measure how fast the host wakes an idle core.
	var (
		reads [2][]read
		rt    [2]tally
	)
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	g, _ := pool.WithContext(context.Background())
	g.SetLimit(2)
	for c := range reads {
		g.Go(func() error {
			reads[c] = st.d.readLoop(deadline, func() string { return st.key },
				map[string][]byte{st.key: ref}, &rt[c])
			return nil
		})
	}
	_ = g.Wait() // readers count their errors in their tallies
	t.merge(rt[0])
	t.merge(rt[1])
	rs := summarize(append(reads[0], reads[1]...))
	peak, err := rss.finish()
	if err != nil {
		return report{}, err
	}
	return t.report(map[string]metric{
		"setup_s":     {setupS, "s"},
		"analysis_s":  {median(durs), "s"},
		"runs_per_s":  {median(rates), "1/s"},
		"read_p50_ms": {rs.p50, "ms"},
		"read_p90_ms": {rs.p90, "ms"},
		"peak_rss_mb": {peak, "MB"},
	}), nil
}

func mustParse(key string) pubtac.Fingerprint {
	f, err := pubtac.ParseFingerprint(key)
	if err != nil {
		panic(fmt.Sprintf("perfbench: bad key %q: %v", key, err)) // keys come from AnalysisKey
	}
	return f
}

// newRand returns the workload's seeded generator for stream id.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}
