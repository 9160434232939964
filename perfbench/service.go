package main

import (
	"context"
	"fmt"
	"time"

	"pubtac"
	"pubtac/internal/pool"
)

// Service workload shape: a working set of prefilled results larger than
// the daemon's memory tier, so about a quarter of reads go to disk.
const (
	workingSet = 64
	memEntries = 48
)

// smallBenches are the small-footprint benchmarks the service writes draw
// from: each of their paths takes milliseconds, so a run holds enough
// writes for a tail percentile (matmult or ns take seconds per write).
var smallBenches = []string{"bs", "janne", "fir", "cnt", "insertsort", "jfdctint", "fdct"}

// smallPairs returns every (benchmark, input) pair of smallBenches, as
// single-input job specs.
func smallPairs() ([]jobSpec, error) {
	var ps []jobSpec
	for _, name := range smallBenches {
		b, err := pubtac.Benchmark(name)
		if err != nil {
			return nil, err
		}
		for _, in := range b.Inputs {
			ps = append(ps, jobSpec{name, []string{in.Name}})
		}
	}
	return ps, nil
}

// serviceSetup is a running daemon prefilled with the working set.
type serviceSetup struct {
	d      *daemon
	keys   []string          // working-set keys
	bodies map[string][]byte // body each prefill write returned
	writes [][]jobSpec       // never-repeated write batches, in order
}

// prefilledDaemon starts a streaming-estimation daemon and writes the
// working set through it on two connections: every single pair, then
// seeded two-pair batches, workingSet requests in all. The writes the run
// will issue are the seeded order of all three-pair batches, which never
// collide with the working set. Each analysis runs on one worker, so the
// daemon's two concurrent jobs use at most the host's two cores.
func prefilledDaemon(p params) (*serviceSetup, error) {
	ps, err := smallPairs()
	if err != nil {
		return nil, err
	}
	r := newRand(p.seed, 1)
	reqs := make([][]jobSpec, 0, workingSet)
	for _, x := range ps {
		reqs = append(reqs, []jobSpec{x})
	}
	var twos [][]jobSpec
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			twos = append(twos, []jobSpec{ps[i], ps[j]})
		}
	}
	r.Shuffle(len(twos), func(i, j int) { twos[i], twos[j] = twos[j], twos[i] })
	reqs = append(reqs, twos[:workingSet-len(reqs)]...)

	var threes [][]jobSpec
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			for k := j + 1; k < len(ps); k++ {
				threes = append(threes, []jobSpec{ps[i], ps[j], ps[k]})
			}
		}
	}
	r.Shuffle(len(threes), func(i, j int) { threes[i], threes[j] = threes[j], threes[i] })

	d, err := startDaemon(sessionOptions(p, 1, true), memEntries)
	if err != nil {
		return nil, err
	}
	st := &serviceSetup{d: d, keys: make([]string, len(reqs)), bodies: make(map[string][]byte), writes: threes}
	bodies := make([][]byte, len(reqs))
	g, _ := pool.WithContext(context.Background())
	g.SetLimit(2)
	for c := 0; c < 2; c++ {
		g.Go(func() error {
			conn := newConn()
			defer conn.CloseIdleConnections()
			for i := c; i < len(reqs); i += 2 {
				body, key, _, err := d.analyze(conn, analyzeRequest(reqs[i]))
				if err == nil {
					_, err = checkWrite(body, reqs[i])
				}
				if err != nil {
					return fmt.Errorf("prefill %v: %w", reqs[i], err)
				}
				st.keys[i], bodies[i] = key, body
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		d.close()
		return nil, err
	}
	for i, k := range st.keys {
		st.bodies[k] = bodies[i]
	}
	return st, nil
}

// traffic is what one service window observed.
type traffic struct {
	reads     []read
	writeMS   []float64 // write latencies
	writeRate []float64 // simulated runs per second of each write
	nwrites   int       // write batches consumed from st.writes
}

// checkWrite verifies a written result against its request: a valid
// batch document with one single-input job per requested pair.
func checkWrite(body []byte, req []jobSpec) (runs int, err error) {
	b, err := pubtac.DecodeBatchResult(body)
	if err != nil {
		return 0, err
	}
	if len(b.Jobs) != len(req) {
		return 0, fmt.Errorf("%d jobs for %d pairs", len(b.Jobs), len(req))
	}
	for i, j := range b.Jobs {
		if len(j.Results) != 1 || j.Results[0].Program != req[i].Bench || j.Results[0].Input != req[i].Inputs[0] {
			return 0, fmt.Errorf("job %d does not answer %v", i, req[i])
		}
		if j.Results[0].RunsUsed <= 0 {
			return 0, fmt.Errorf("job %d simulated no runs", i)
		}
		runs += j.Results[0].RunsUsed
	}
	return runs, nil
}

// runTraffic runs the closed-loop reader and writer, each on its own
// connection, for secs seconds, writing st.writes from index from on.
func runTraffic(p params, st *serviceSetup, from int, secs float64, t *tally) traffic {
	var (
		tr     traffic
		rt, wt tally // each caller's own checks, merged after both end
	)
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	g, _ := pool.WithContext(context.Background())
	g.SetLimit(2)
	g.Go(func() error { // reader
		r := newRand(p.seed, 2)
		tr.reads = st.d.readLoop(deadline, func() string { return st.keys[r.IntN(len(st.keys))] }, st.bodies, &rt)
		return nil
	})
	g.Go(func() error { // writer
		conn := newConn()
		defer conn.CloseIdleConnections()
		for i := from; i < len(st.writes) && time.Now().Before(deadline); i++ {
			tr.nwrites++
			body, _, dur, err := st.d.analyze(conn, analyzeRequest(st.writes[i]))
			runs := 0
			if err == nil {
				runs, err = checkWrite(body, st.writes[i])
			}
			if wt.ok(err == nil, "write %v: %v", st.writes[i], err) {
				tr.writeMS = append(tr.writeMS, float64(dur)/1e6)
				tr.writeRate = append(tr.writeRate, float64(runs)/dur.Seconds())
			}
		}
		return nil
	})
	_ = g.Wait() // both callers count their errors in their tallies and return nil
	t.merge(rt)
	t.merge(wt)
	return tr
}

// runService is the untraced service run: daemon start and prefill as
// set-up, then one reader and one writer for the measured seconds.
func runService(p params) (report, error) {
	st, setupS, err := repeatSetup(5, func() (*serviceSetup, error) {
		return prefilledDaemon(p)
	}, func(s *serviceSetup) { s.d.close() })
	if err != nil {
		return report{}, err
	}
	defer st.d.close()

	var t tally
	rss := startRSS()
	tr := runTraffic(p, st, 0, p.seconds, &t)
	peak, err := rss.finish()
	if err != nil {
		return report{}, err
	}
	if len(tr.writeMS) == 0 || len(tr.reads) == 0 {
		return t.report(nil), fmt.Errorf("service window completed %d reads and %d writes", len(tr.reads), len(tr.writeMS))
	}
	rs := summarize(tr.reads)
	return t.report(map[string]metric{
		"setup_s":     {setupS, "s"},
		"analysis_s":  {median(tr.writeMS) / 1000, "s"},
		"runs_per_s":  {median(tr.writeRate), "1/s"},
		"read_p50_ms": {rs.p50, "ms"},
		"read_p90_ms": {rs.p90, "ms"},
		"peak_rss_mb": {peak, "MB"},
	}), nil
}
