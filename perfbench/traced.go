package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"time"

	"pubtac"
	"pubtac/internal/cache"
	"pubtac/internal/evt"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/pub"
	"pubtac/internal/rng"
	"pubtac/internal/tac"
	"pubtac/internal/trace"
)

// The traced run replays each analysis path through the same public calls
// package core makes, single-worker so that self-times add up, and records
// a span around each call. Two further passes split the campaign spans: a
// replay-only pass runs the same runs through proc.Engine.CampaignBatchInto,
// and an estimation-only pass pushes the replayed sample through a fresh
// summary with the same chunking and fits it. Every pass is checked against
// the untraced Session result bit for bit, so the spans are shown to time
// the same work.

// span is one timed call into a layer.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"` // since the traced run began
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 for none
	Analysis string  `json:"analysis"`
}

// tracer keeps spans in memory and sums their durations per name.
type tracer struct {
	t0    time.Time
	spans []span
	total map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), total: make(map[string]float64)} }

func (tr *tracer) start(name string, parent int, id string) int {
	tr.spans = append(tr.spans, span{Name: name, Start: time.Since(tr.t0).Seconds(), Parent: parent, Analysis: id})
	return len(tr.spans) - 1
}

// stop ends span i and returns its duration in seconds.
func (tr *tracer) stop(i int) float64 {
	s := &tr.spans[i]
	s.End = time.Since(tr.t0).Seconds()
	d := s.End - s.Start
	tr.total[s.Name] += d
	return d
}

// write saves the spans as JSON.
func (tr *tracer) write(path string) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// streamChunk mirrors the streaming summary's push granularity in package
// mbpta (8 collection blocks of 8·BatchK runs); the estimation-only pass
// must push identically, which the bit-for-bit estimate check confirms.
const (
	collectBlock = 8 * proc.BatchK
	streamChunk  = 8 * collectBlock
)

// conflictSamples is how many campaign runs per path the conflict-share
// measurement re-runs.
const conflictSamples = 256

// pathRun is one analyzed path of the traced pass.
type pathRun struct {
	id      string
	tr      trace.Trace
	camp    *mbpta.Campaign
	root    uint64
	cfg     mbpta.Config
	conv    *mbpta.Convergence
	tac     *tac.Analysis
	used    int
	full    *mbpta.Estimate
	sample  []float64 // filled by the replay-only pass
	pushes  []push    // the campaign's summary pushes, in order
	conflIL int       // sampled runs with IL1 misses beyond cold misses
	conflDL int
	over    []bool // per run: placement overflows a set, so the engine replays it
}

// layers is the traced decomposition of one batch set.
type layers struct {
	paths []*pathRun
	// Self-times in seconds.
	pubS, execS, compileS, tacS         float64
	engineConv, engineExt               float64 // campaign engine time
	placeS, replayS                     float64 // engine time split
	pushConv, pushExt, fitConv, fitExt  float64
	convergeS, extendS                  float64 // span totals
	inserted, accesses, rounds, groups  int
	minRuns, simRuns, peakBytes         int
	simAccesses                         float64
	ilConflicts, dlConflicts, conflRuns float64 // run-weighted sample shares
	replays                             int
}

// decompose runs the traced pass over batches, then the replay-only and
// estimation-only passes and the conflict sample, counting their checks in
// t. Each batch transforms each of its programs once, as
// Session.AnalyzeBatch does.
func decompose(ctx context.Context, cfg pubtac.Config, batches [][]pubtac.Job, seed uint64,
	tr *tracer, t *tally) (*layers, error) {
	l := &layers{}
	for _, jobs := range batches {
		xforms := make(map[*pubtac.Program]*pubtac.Program)
		for _, job := range jobs {
			pubbed, ok := xforms[job.Program]
			if !ok {
				s := tr.start("pub.transform", -1, job.Program.Name)
				var (
					rep pub.Report
					err error
				)
				pubbed, rep, err = pub.Transform(job.Program)
				tr.stop(s)
				if err != nil {
					return nil, err
				}
				xforms[job.Program] = pubbed
				l.inserted += rep.InsertedAccesses
			}
			for _, in := range job.Inputs {
				pr, err := tracePath(ctx, cfg, pubbed, job.Program.Name, in, tr)
				if err != nil {
					return nil, err
				}
				l.paths = append(l.paths, pr)
			}
		}
	}
	l.pubS = tr.total["pub.transform"]
	l.execS = tr.total["program.exec"]
	l.compileS = tr.total["proc.compile"]
	l.tacS = tr.total["tac.analyze"]
	l.convergeS = tr.total["mbpta.converge"]
	l.extendS = tr.total["mbpta.extend"]

	r := newRand(seed, 3)
	for _, pr := range l.paths {
		replayOnly(pr, tr, l, t)
		if err := estimateOnly(pr, tr, l, t); err != nil {
			return nil, err
		}
		sampleConflicts(pr, r, t)
		for _, o := range pr.over {
			if o {
				l.replays++
			}
		}
		w := float64(pr.used)
		l.ilConflicts += w * float64(pr.conflIL) / conflictSamples
		l.dlConflicts += w * float64(pr.conflDL) / conflictSamples
		l.conflRuns += w
		l.rounds += pr.conv.Rounds
		l.groups += len(pr.tac.Groups)
		l.minRuns += pr.tac.MinRuns
		l.simRuns += pr.used
		l.simAccesses += float64(pr.used) * float64(len(pr.tr))
		l.accesses += len(pr.tr)
		if b := pr.conv.Summary.PeakBytes(); b > l.peakBytes {
			l.peakBytes = b
		}
	}
	return l, nil
}

// tracePath is core's per-path pipeline, one span per layer call.
func tracePath(ctx context.Context, cfg pubtac.Config, pubbed *pubtac.Program, name string,
	in pubtac.Input, tr *tracer) (*pathRun, error) {
	id := name + "/" + in.Name
	ps := tr.start("core.path", -1, id)
	defer tr.stop(ps)

	s := tr.start("program.exec", ps, id)
	res, err := pubbed.Exec(in)
	tr.stop(s)
	if err != nil {
		return nil, err
	}
	s = tr.start("proc.compile", ps, id)
	camp := mbpta.NewCampaign(res.Trace, cfg.Model)
	tr.stop(s)

	tcfg := cfg.TAC
	if tcfg.Workers == 0 {
		tcfg.Workers = 1
	}
	s = tr.start("tac.analyze", ps, id)
	ta, err := tac.AnalyzeCompiled(res.Trace, camp.Compiled, cfg.Model, tcfg)
	tr.stop(s)
	if err != nil {
		return nil, err
	}

	mcfg := cfg.MBPTA
	mcfg.Workers = 1
	pr := &pathRun{id: id, tr: res.Trace, camp: camp, tac: ta, cfg: mcfg,
		root: mbpta.Seed(id) ^ cfg.SeedSalt}
	s = tr.start("mbpta.converge", ps, id)
	pr.conv, err = camp.ConvergeCtx(ctx, mcfg, pr.root, nil)
	tr.stop(s)
	if err != nil {
		return nil, err
	}

	pr.used = max(pr.conv.Runs, ta.MinRuns)
	if cfg.CampaignCap > 0 && pr.used > cfg.CampaignCap {
		pr.used = cfg.CampaignCap
	}
	pr.full = pr.conv.Estimate
	if pr.used <= pr.conv.Runs {
		pr.used = pr.conv.Runs
	} else {
		s = tr.start("mbpta.extend", ps, id)
		err = camp.ExtendSummaryCtx(ctx, pr.conv.Summary, pr.used, pr.root, 1, nil)
		if err == nil {
			pr.full, err = mbpta.NewEstimateSummary(pr.conv.Summary, cfg.MBPTA)
		}
		tr.stop(s)
		if err != nil {
			return nil, err
		}
	}

	// The campaign's summary pushes: the initial sample, one increment per
	// convergence round, then the extension — each cut into stream chunks
	// under streaming estimation, as package mbpta collects them. An
	// estimate follows the last push of each round and of the extension.
	add := func(lo, hi int, conv bool) {
		step := hi - lo
		if mcfg.Streaming {
			step = streamChunk
		}
		for a := lo; a < hi; a += step {
			b := min(a+step, hi)
			pr.pushes = append(pr.pushes, push{lo: a, hi: b, conv: conv, fit: b == hi})
		}
	}
	add(0, mcfg.InitialRuns, true)
	for k := 0; k < pr.conv.Rounds; k++ {
		lo := mcfg.InitialRuns + k*mcfg.Increment
		add(lo, lo+mcfg.Increment, true)
	}
	if n := mcfg.InitialRuns + pr.conv.Rounds*mcfg.Increment; n != pr.conv.Runs {
		return nil, fmt.Errorf("%s: %d runs after %d rounds, want %d", id, pr.conv.Runs, pr.conv.Rounds, n)
	}
	add(pr.conv.Runs, pr.used, false)
	return pr, nil
}

// push is one summary push of a campaign: runs [lo, hi).
type push struct {
	lo, hi int
	conv   bool // part of convergence, not of the extension
	fit    bool // an estimate follows it
}

// replayOnly re-runs the path's campaign as a single-worker campaign
// collects it — a fresh engine per push, in collection blocks of
// BatchK-seed batches — and checks the runs against the retained sample
// when the summary keeps one. Each batch is timed and classified by
// placement: a batch none of whose seeds overflows a set is answered
// analytically, so its time is placement alone. Every batch pays that
// placement cost; the rest of the engine time is the replay of overflowing
// seeds (and of the trailing runs a batch cannot hold, which always replay).
// A path with no analytic batch counts all its engine time as replay.
func replayOnly(pr *pathRun, tr *tracer, l *layers, t *tally) {
	pr.sample = make([]float64, pr.used)
	pr.over = overflows(pr)
	var (
		engine, free  float64
		nfree, nbatch int
	)
	for _, p := range pr.pushes {
		s := tr.start("proc.campaign", -1, pr.id)
		eng := proc.NewEngine(pr.camp.Model)
		eng.SetCompiled(pr.camp.Compiled, pr.tr)
		for lo := p.lo; lo < p.hi; lo += collectBlock {
			end := min(lo+collectBlock, p.hi)
			for a := lo; a < end; a += proc.BatchK {
				b := min(a+proc.BatchK, end)
				t0 := time.Now()
				eng.CampaignBatchInto(pr.tr, pr.sample[a:b], pr.root, a)
				d := time.Since(t0).Seconds()
				if b-a == proc.BatchK {
					nbatch++
					if !slices.Contains(pr.over[a:b], true) {
						nfree++
						free += d
					}
				}
			}
		}
		d := tr.stop(s)
		engine += d
		if p.conv {
			l.engineConv += d
		} else {
			l.engineExt += d
		}
	}
	place := 0.0
	if nfree > 0 {
		place = min(engine, free/float64(nfree)*float64(nbatch))
	}
	l.placeS += place
	l.replayS += engine - place
	if want := pr.full.Sample; want != nil {
		t.ok(slices.Equal(want, pr.sample), "%s: replay-only pass differs from the campaign's sample", pr.id)
	}
}

// overflows reports, for every run of the path's campaign, whether its
// placement maps more distinct lines into some set of either cache than
// the set has ways: the runs the batch engine must replay. An engine run
// of the empty trace places the caches for a seed without replaying
// anything.
func overflows(pr *pathRun) []bool {
	eng := proc.NewEngine(pr.camp.Model)
	il, dl := pr.camp.Compiled.SideLines(trace.Instr), pr.camp.Compiled.SideLines(trace.Data)
	counts := make([]int, max(pr.camp.Model.IL1.Sets, pr.camp.Model.DL1.Sets))
	out := make([]bool, pr.used)
	for i := range out {
		eng.Run(nil, rng.Stream(pr.root, i))
		out[i] = overflowsSet(eng.IL1(), il, counts) || overflowsSet(eng.DL1(), dl, counts)
	}
	return out
}

// overflowsSet reports whether c's current placement maps more of lines
// into one set than it has ways.
func overflowsSet(c *cache.Cache, lines []uint64, counts []int) bool {
	cfg := c.Config()
	counts = counts[:cfg.Sets]
	clear(counts)
	for _, line := range lines {
		s := c.SetOf(line)
		if counts[s]++; counts[s] > cfg.Ways {
			return true
		}
	}
	return false
}

// estimateOnly pushes the replayed sample through a fresh summary with the
// campaign's pushes, fitting after each convergence push and after the
// extension, and checks the final estimate against the campaign's.
func estimateOnly(pr *pathRun, tr *tracer, l *layers, t *tally) error {
	sum := mbpta.NewSummary(pr.cfg)
	var est *mbpta.Estimate
	fit := func(conv bool) error {
		s := tr.start("evt.fit", -1, pr.id)
		v := sum.View()
		_, _, err := evt.FitExpTailAutoSummary(v, pr.cfg.TailCount, v.N()/5)
		if d := tr.stop(s); conv {
			l.fitConv += d
		} else {
			l.fitExt += d
		}
		if err != nil {
			return err
		}
		est, err = mbpta.NewEstimateSummary(sum, pr.cfg)
		return err
	}
	for _, p := range pr.pushes {
		s := tr.start("stats.push", -1, pr.id)
		sum.Push(pr.sample[p.lo:p.hi])
		if d := tr.stop(s); p.conv {
			l.pushConv += d
		} else {
			l.pushExt += d
		}
		if p.fit {
			if err := fit(p.conv); err != nil {
				return err
			}
		}
	}
	err := sameEstimate(est, pr.full)
	t.ok(err == nil, "%s: estimation-only pass: %v", pr.id, err)
	return nil
}

// sameEstimate checks that two estimates have the same size, maximum and
// pWCET curve, bit for bit, at one probability per decade down to 1e-12.
func sameEstimate(got, want *mbpta.Estimate) error {
	if got == nil || got.Runs() != want.Runs() || got.MaxObserved() != want.MaxObserved() {
		return fmt.Errorf("estimate size or maximum differs")
	}
	for p := 0.1; p > 1e-13; p /= 10 {
		if math.Float64bits(got.PWCET(p)) != math.Float64bits(want.PWCET(p)) {
			return fmt.Errorf("pWCET at %g is %v, want %v", p, got.PWCET(p), want.PWCET(p))
		}
	}
	return nil
}

// sampleConflicts re-runs a seeded sample of the campaign's runs one seed
// at a time and counts, per cache, the runs with more misses than the
// trace has distinct lines: misses beyond cold misses, so runs whose
// placement made lines conflict. Each re-run must reproduce its campaign
// run, and a run with such misses must be one whose placement overflows.
func sampleConflicts(pr *pathRun, r *rand.Rand, t *tally) {
	il, dl := pr.camp.Compiled.DistinctLines()
	eng := proc.NewEngine(pr.camp.Model)
	eng.SetCompiled(pr.camp.Compiled, pr.tr)
	for k := 0; k < conflictSamples; k++ {
		i := r.IntN(pr.used)
		got := float64(eng.Run(pr.tr, rng.Stream(pr.root, i)))
		t.ok(got == pr.sample[i], "%s: run %d re-ran to %v, campaign had %v", pr.id, i, got, pr.sample[i])
		mi, md := eng.Misses()
		if mi > uint64(il) {
			pr.conflIL++
		}
		if md > uint64(dl) {
			pr.conflDL++
		}
		t.ok(pr.over[i] || (mi <= uint64(il) && md <= uint64(dl)),
			"%s: run %d misses beyond cold misses without overflowing a set", pr.id, i)
	}
}

// checkAgainst compares the traced paths with the Session's results, in
// batch order, field by field and bit for bit.
func (l *layers) checkAgainst(results []*pubtac.Result, t *tally) {
	if !t.ok(len(results) == len(l.paths), "traced %d paths, session %d", len(l.paths), len(results)) {
		return
	}
	for i, r := range results {
		pr := l.paths[i]
		good := r.Program+"/"+r.Input == pr.id && r.RPub == pr.conv.Runs && r.RTac == pr.tac.MinRuns &&
			r.R == max(r.RPub, r.RTac) && r.RunsUsed == pr.used && r.TACClasses == len(pr.tac.Classes) &&
			math.Float64bits(r.MaxObserved) == math.Float64bits(pr.full.MaxObserved()) &&
			len(r.Curve) > 0
		for _, pt := range r.Curve {
			good = good && math.Float64bits(pt.Cycles) == math.Float64bits(pr.full.PWCET(pt.Prob))
		}
		t.ok(good, "%s: traced path differs from the session result", pr.id)
	}
}

// metrics returns the per-layer figures. session1w is the untraced
// single-worker Session time of the same batches.
func (l *layers) metrics(session1w float64, tr *tracer) map[string]metric {
	engine := l.engineConv + l.engineExt
	push := l.pushConv + l.pushExt
	fit := l.fitConv + l.fitExt
	// The self-times of all layers add up to the traced layer spans.
	selfSum := l.pubS + l.execS + l.compileS + l.tacS + l.convergeS + l.extendS
	traced := l.pubS + tr.total["core.path"]
	return map[string]metric{
		"proc.replay_s":          {l.replayS, "s"},
		"proc.place_s":           {l.placeS, "s"},
		"proc.replayed_frac":     {float64(l.replays) / float64(l.simRuns), "ratio"},
		"proc.ns_per_access":     {engine * 1e9 / l.simAccesses, "ns"},
		"proc.sim_runs":          {float64(l.simRuns), "count"},
		"proc.sim_accesses":      {l.simAccesses, "count"},
		"proc.il1_conflict_frac": {l.ilConflicts / l.conflRuns, "ratio"},
		"proc.dl1_conflict_frac": {l.dlConflicts / l.conflRuns, "ratio"},
		"proc.compile_s":         {l.compileS, "s"},
		"stats.push_s":           {push, "s"},
		"stats.peak_bytes":       {float64(l.peakBytes), "B"},
		"evt.fit_s":              {fit, "s"},
		"mbpta.converge_s":       {l.convergeS - l.engineConv - l.pushConv - l.fitConv, "s"},
		"mbpta.extend_s":         {l.extendS - l.engineExt - l.pushExt - l.fitExt, "s"},
		"mbpta.rounds":           {float64(l.rounds), "count"},
		"tac.analyze_s":          {l.tacS, "s"},
		"tac.groups":             {float64(l.groups), "count"},
		"tac.min_runs":           {float64(l.minRuns), "count"},
		"pub.transform_s":        {l.pubS, "s"},
		"pub.inserted_accesses":  {float64(l.inserted), "count"},
		"program.exec_s":         {l.execS, "s"},
		"program.trace_accesses": {float64(l.accesses), "count"},
		"core.overhead_s":        {session1w - selfSum, "s"},
		"trace.overhead_frac":    {traced/session1w - 1, "ratio"},
	}
}

// runTraced is the traced run of any workload.
func runTraced(p params) (report, error) {
	var (
		rep report
		err error
	)
	tr := newTracer()
	if p.workload == "service" {
		rep, err = tracedService(p, tr)
	} else {
		rep, err = tracedAnalysis(p, tr)
	}
	if err == nil && p.spans != "" {
		err = tr.write(p.spans)
	}
	return rep, err
}

// tracedAnalysis decomposes paper-batch or bs-multipath: untraced
// single-worker Session passes, the traced passes, then the daemon
// computing and serving the same batch.
func tracedAnalysis(p params, tr *tracer) (report, error) {
	jobs, err := analysisJobs(p.workload)
	if err != nil {
		return report{}, err
	}
	opts := sessionOptions(p, 1, false)
	sess := pubtac.NewSession(opts...)
	ctx := context.Background()
	// Untraced single-worker passes for a quarter of the measured seconds,
	// at least two: the first warms the process up, the rest give the
	// median.
	var (
		t     tally
		batch *pubtac.BatchResult
		want  []byte
		durs  []float64
	)
	start := time.Now()
	for len(durs) < 2 || time.Since(start).Seconds() < p.seconds/4 {
		t0 := time.Now()
		b, err := sess.AnalyzeBatch(ctx, jobs)
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			return report{}, err
		}
		body, err := b.JSON()
		if err != nil {
			return report{}, err
		}
		if batch == nil {
			batch, want = b, body
		} else {
			t.ok(bytes.Equal(body, want), "session pass %d differs from the first", len(durs))
		}
	}
	session1w := median(durs[1:])

	l, err := decompose(ctx, sess.Config(), [][]pubtac.Job{jobs}, p.seed, tr, &t)
	if err != nil {
		return report{}, err
	}
	l.checkAgainst(batch.All(), &t)

	sm, err := serveProbe(p, opts, jobs, want, session1w, &t)
	if err != nil {
		return report{}, err
	}
	m := l.metrics(session1w, tr)
	for k, v := range sm {
		m[k] = v
	}
	return t.report(m), nil
}

// probeSeconds is how long the traced run reads from the daemon after it
// computed an analysis workload's batch.
const probeSeconds = 0.5

// serveProbe has a daemon with the session's options compute the batch,
// checks it returns the Session's bytes under the expected key, then reads
// it back. The same body is also stored under a second key, so that with a
// one-entry memory tier reads alternate between the tiers.
func serveProbe(p params, opts []pubtac.Option, jobs []pubtac.Job, want []byte,
	session1w float64, t *tally) (map[string]metric, error) {
	d, err := startDaemon(opts, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	conn := newConn()
	defer conn.CloseIdleConnections()
	body, key, dur, err := d.analyze(conn, analyzeRequest(specsOf(jobs)))
	if err != nil {
		return nil, err
	}
	t.ok(bytes.Equal(body, want), "daemon result differs from the session's")
	wantKey, err := resultKey(d, jobs, p.seed)
	if err != nil {
		return nil, err
	}
	t.ok(key == wantKey, "daemon key %s, want %s", key, wantKey)

	alt := sha256.Sum256([]byte(key))
	if err := d.store.Put(alt, body); err != nil {
		return nil, err
	}
	keys := []string{key, pubtac.Fingerprint(alt).String()}
	r := newRand(p.seed, 4)
	reads := d.readLoop(time.Now().Add(time.Duration(probeSeconds*float64(time.Second))),
		func() string { return keys[r.IntN(2)] }, map[string][]byte{keys[0]: body, keys[1]: body}, t)
	st, err := d.statusz(conn)
	if err != nil {
		return nil, err
	}
	return serveMetrics(reads, st, dur.Seconds()*1000-session1w*1000), nil
}

// serveMetrics returns the serve-layer figures: read latency split by the
// tier that served each read, the memory tier's share, the daemon's
// counters, and the write overhead over an in-process analysis.
func serveMetrics(reads []read, st statusz, writeOverheadMS float64) map[string]metric {
	var mem, disk []float64
	for _, r := range reads {
		if r.tier == "mem" {
			mem = append(mem, r.ms)
		} else {
			disk = append(disk, r.ms)
		}
	}
	hit := 0.0
	if len(reads) > 0 {
		hit = float64(len(mem)) / float64(len(reads))
	}
	rs := summarize(reads)
	return map[string]metric{
		"serve.read_p99_ms":       {rs.p99, "ms"},
		"serve.read_rps":          {rs.rps, "1/s"},
		"serve.read_mem_p50_ms":   {quantile(mem, 0.5), "ms"},
		"serve.read_disk_p50_ms":  {quantile(disk, 0.5), "ms"},
		"serve.mem_hit_frac":      {hit, "ratio"},
		"serve.computed":          {float64(st.Computed), "count"},
		"serve.deduped":           {float64(st.Deduped), "count"},
		"serve.write_errors":      {float64(st.Store.WriteErrors), "count"},
		"serve.write_overhead_ms": {writeOverheadMS, "ms"},
	}
}

// quietWrites is how many writes the traced service run issues alone, each
// followed by an in-process analysis of the same request.
const quietWrites = 8

// tracedService decomposes the service workload: the reader and writer for
// half the measured seconds, then quietWrites writes alone, each followed
// by the same analysis through an in-process Session, then the traced
// passes over those writes' batches.
func tracedService(p params, tr *tracer) (report, error) {
	st, err := prefilledDaemon(p)
	if err != nil {
		return report{}, err
	}
	defer st.d.close()
	var t tally
	trf := runTraffic(p, st, 0, p.seconds/2, &t)

	sess := pubtac.NewSession(sessionOptions(p, 1, true)...)
	ctx := context.Background()
	conn := newConn()
	defer conn.CloseIdleConnections()
	var (
		overheads []float64
		batches   [][]pubtac.Job
		results   []*pubtac.Result
		session1w float64
	)
	for _, specs := range st.writes[trf.nwrites : trf.nwrites+quietWrites] {
		body, _, dur, err := st.d.analyze(conn, analyzeRequest(specs))
		if err != nil {
			return report{}, err
		}
		jobs, err := jobsOf(specs)
		if err != nil {
			return report{}, err
		}
		t0 := time.Now()
		batch, err := sess.AnalyzeBatch(ctx, jobs)
		sd := time.Since(t0).Seconds()
		if err != nil {
			return report{}, err
		}
		want, err := batch.JSON()
		if err != nil {
			return report{}, err
		}
		t.ok(bytes.Equal(body, want), "write %v: daemon result differs from the session's", specs)
		overheads = append(overheads, (dur.Seconds()-sd)*1000)
		session1w += sd
		batches = append(batches, jobs)
		results = append(results, batch.All()...)
	}

	l, err := decompose(ctx, sess.Config(), batches, p.seed, tr, &t)
	if err != nil {
		return report{}, err
	}
	l.checkAgainst(results, &t)
	sz, err := st.d.statusz(conn)
	if err != nil {
		return report{}, err
	}
	m := l.metrics(session1w, tr)
	for k, v := range serveMetrics(trf.reads, sz, median(overheads)) {
		m[k] = v
	}
	return t.report(m), nil
}
