package proc

import (
	"sync"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// wideTrace builds a pseudo-random trace over many distinct lines, so that
// under random placement most seeds overflow some set and must replay the
// stream (the analytic conflict-free path alone cannot answer the block).
func wideTrace(gen *rng.Xoshiro256, n int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		a := trace.Access{Addr: uint64(gen.Intn(220)) * 32}
		if gen.Intn(3) == 0 {
			a.Kind = trace.Instr
		} else {
			a.Kind = trace.Data
		}
		tr[i] = a
	}
	return tr
}

// assertCampaignsMatch compares a batched campaign against a per-seed
// compiled campaign and the uncompiled reference engine, at several lengths
// (covering partial blocks, exact blocks and multi-block campaigns) and a
// non-zero offset.
func assertCampaignsMatch(t *testing.T, label string, m Model, tr trace.Trace,
	setup func(e *Engine)) {
	t.Helper()
	build := func(ref bool) *Engine {
		e := NewEngine(m)
		e.UseReference(ref)
		if setup != nil {
			setup(e)
		}
		return e
	}
	const root = 0xBA7C4
	for _, n := range []int{1, BatchK - 1, BatchK, BatchK + 3, 4 * BatchK, 4*BatchK + 5} {
		for _, offset := range []int{0, 13} {
			batch := make([]float64, n)
			build(false).CampaignBatchInto(tr, batch, root, offset)
			seed := make([]float64, n)
			perSeed := build(false)
			for i := range seed {
				seed[i] = float64(perSeed.Run(tr, rng.Stream(root, offset+i)))
			}
			ref := make([]float64, n)
			build(true).CampaignInto(tr, ref, root, offset)
			for i := range batch {
				if batch[i] != seed[i] || batch[i] != ref[i] {
					t.Fatalf("%s: n=%d offset=%d run %d: batch %v, per-seed %v, reference %v",
						label, n, offset, i, batch[i], seed[i], ref[i])
				}
			}
		}
	}
}

// TestBatchCampaignMatchesPerSeed is the bit-identity oracle of the batched
// replay: for every placement/replacement combination, with and without
// miss jitter, on both a conflict-heavy and a mostly-conflict-free trace,
// batch campaigns must equal per-seed compiled campaigns and the reference
// engine exactly.
func TestBatchCampaignMatchesPerSeed(t *testing.T) {
	gen := rng.New(0xBA7C)
	narrow := randomTrace(gen, 400) // few lines: mostly analytic path
	wide := wideTrace(gen, 600)     // many lines: mostly replay path
	for _, m := range policyCombos() {
		for _, jitter := range []uint64{0, 5} {
			m := m
			m.Lat.MissJitter = jitter
			assertCampaignsMatch(t, "narrow", m, narrow, nil)
			assertCampaignsMatch(t, "wide", m, wide, nil)
		}
	}
}

// TestBatchCampaignHigherAssoc covers the generic batched loop with a 4-way
// geometry (the specialized loop only handles 2-way random/random).
func TestBatchCampaignHigherAssoc(t *testing.T) {
	gen := rng.New(0x4A55)
	tr := wideTrace(gen, 500)
	m := DefaultModel()
	m.IL1.Ways, m.IL1.Sets = 4, 32
	m.DL1.Ways, m.DL1.Sets = 4, 32
	assertCampaignsMatch(t, "4way-random", m, tr, nil)
	m.IL1.Replacement = cache.LRUReplacement
	m.DL1.Replacement = cache.LRUReplacement
	assertCampaignsMatch(t, "4way-lru", m, tr, nil)
}

// TestBatchCampaignPinned covers TAC-style pinned campaigns: pins force a
// line group into one set across every seed of the block, including pins
// that overflow the associativity (forcing the replay path) and pins
// combined with jitter.
func TestBatchCampaignPinned(t *testing.T) {
	gen := rng.New(0x9199)
	tr := randomTrace(gen, 500)
	m := DefaultModel()
	pinOverflow := func(e *Engine) {
		e.DL1().SetPin(&cache.Pin{Lines: map[uint64]bool{0: true, 1: true, 2: true}, Set: 7})
	}
	pinBoth := func(e *Engine) {
		e.IL1().SetPin(&cache.Pin{Lines: map[uint64]bool{0: true, 1: true}, Set: 0})
		e.DL1().SetPin(&cache.Pin{Lines: map[uint64]bool{3: true, 4: true, 5: true}, Set: 63})
	}
	assertCampaignsMatch(t, "pin-overflow", m, tr, pinOverflow)
	assertCampaignsMatch(t, "pin-both", m, tr, pinBoth)
	mj := m
	mj.Lat.MissJitter = 3
	assertCampaignsMatch(t, "pin-jitter", mj, tr, pinOverflow)
}

// sidedTrace interleaves two access streams: instruction fetches over
// ilLines distinct lines and data accesses over dlLines distinct lines. A
// side with more distinct lines than its cache holds overflows some set
// under every placement; a side with at most Ways lines never does.
func sidedTrace(gen *rng.Xoshiro256, n, ilLines, dlLines int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		if gen.Intn(2) == 0 {
			tr[i] = trace.Access{Kind: trace.Instr, Addr: uint64(gen.Intn(ilLines)) * 32}
		} else {
			tr[i] = trace.Access{Kind: trace.Data, Addr: 0x100000 + uint64(gen.Intn(dlLines))*32}
		}
	}
	return tr
}

// blockHotSeeds runs the first batch block of a campaign over tr and
// returns, per cache, the seeds that had at least one hot line.
func blockHotSeeds(m Model, tr trace.Trace, setup func(e *Engine)) (il, dl uint8) {
	e := NewEngine(m)
	if setup != nil {
		setup(e)
	}
	e.CampaignBatchInto(tr, make([]float64, BatchK), 0xBA7C4, 0)
	for id := range e.batch.il.hot {
		il |= e.batch.il.hot[id]
	}
	for id := range e.batch.dl.hot {
		dl |= e.batch.dl.hot[id]
	}
	return il, dl
}

// TestBatchCampaignOneSideConflicts covers seeds that conflict in one
// cache only, in the other only, and in both, with and without miss
// jitter: a cache with no hot line in the block is skipped, and the other
// cache's replay plus the analytic cold misses must still add up to the
// per-seed run.
func TestBatchCampaignOneSideConflicts(t *testing.T) {
	gen := rng.New(0x51DE)
	cases := []struct {
		name         string
		tr           trace.Trace
		ilHot, dlHot bool
	}{
		{"il1-only", sidedTrace(gen, 600, 200, 2), true, false},
		{"dl1-only", sidedTrace(gen, 600, 2, 200), false, true},
		{"both", sidedTrace(gen, 600, 200, 200), true, true},
	}
	for _, c := range cases {
		for _, jitter := range []uint64{0, 5} {
			m := DefaultModel()
			m.Lat.MissJitter = jitter
			il, dl := blockHotSeeds(m, c.tr, nil)
			if (il != 0) != c.ilHot || (dl != 0) != c.dlHot {
				t.Fatalf("%s: hot seeds IL1 %08b, DL1 %08b; want IL1 hot %v, DL1 hot %v",
					c.name, il, dl, c.ilHot, c.dlHot)
			}
			assertCampaignsMatch(t, c.name, m, c.tr, nil)
		}
	}
}

// TestBatchCampaignPinOverflowsOtherSide covers a pin that overflows one
// cache for every seed while random placement overflows the other: DL1's
// only lines are three pinned into one 2-way set, and IL1's 200 lines
// exceed its 128 ways.
func TestBatchCampaignPinOverflowsOtherSide(t *testing.T) {
	gen := rng.New(0x9107)
	tr := sidedTrace(gen, 600, 200, 3)
	pin := func(e *Engine) {
		lines := map[uint64]bool{}
		for i := uint64(0); i < 3; i++ {
			lines[(0x100000+i*32)>>5] = true
		}
		e.DL1().SetPin(&cache.Pin{Lines: lines, Set: 11})
	}
	for _, jitter := range []uint64{0, 3} {
		m := DefaultModel()
		m.Lat.MissJitter = jitter
		if il, dl := blockHotSeeds(m, tr, pin); il != 0xFF || dl != 0xFF {
			t.Fatalf("hot seeds IL1 %08b, DL1 %08b; want every seed hot in both", il, dl)
		}
		assertCampaignsMatch(t, "pin-dl1-random-il1", m, tr, pin)
	}
}

// TestBatchCampaignLRUPartialOverflow covers 4-way LRU where a seed's
// placement overflows some sets but not others, so its hot lines are
// replayed with stream-position ticks beside analytically answered ones.
func TestBatchCampaignLRUPartialOverflow(t *testing.T) {
	gen := rng.New(0x14A7)
	m := DefaultModel()
	m.IL1.Ways, m.IL1.Sets = 4, 16
	m.DL1.Ways, m.DL1.Sets = 4, 16
	m.IL1.Replacement = cache.LRUReplacement
	m.DL1.Replacement = cache.LRUReplacement
	tr := sidedTrace(gen, 800, 40, 40)
	e := NewEngine(m)
	e.CampaignBatchInto(tr, make([]float64, BatchK), 0xBA7C4, 0)
	for k := range BatchK {
		if c := e.batch.dl.cold[k]; c == 0 || c == 40 {
			t.Fatalf("seed %d: %d of 40 DL1 lines answered analytically; want a partial overflow", k, c)
		}
	}
	assertCampaignsMatch(t, "4way-lru-partial", m, tr, nil)
	m.Lat.MissJitter = 4
	assertCampaignsMatch(t, "4way-lru-partial-jitter", m, tr, nil)
}

// TestBatchReplaysExactlyHotLines checks the projection itself: for every
// seed of a campaign's last block (earlier blocks must leave no trace), the
// lines the batch treats as hot are exactly the lines whose set — under
// that seed's placement, as cache.SetOf computes it — holds more than Ways
// distinct lines; the replay touches exactly the accesses to those lines;
// and the analytic cold misses plus the replayed misses equal the per-seed
// run's misses in each cache.
func TestBatchReplaysExactlyHotLines(t *testing.T) {
	gen := rng.New(0x4071)
	tr := sidedTrace(gen, 900, 150, 90)
	for _, m := range policyCombos() {
		const root, offset, blocks = 0x407, 24, 3
		e := NewEngine(m)
		e.CampaignBatchInto(tr, make([]float64, blocks*BatchK), root, offset)
		ct := e.compiledFor(tr)
		for k := range BatchK {
			seed := rng.Stream(root, offset+(blocks-1)*BatchK+k)
			ref := NewEngine(m)
			ref.Run(tr, seed)
			wantIL, wantDL := ref.Misses()
			for _, side := range []struct {
				name  string
				cs    *compiledSide
				bs    *batchSide
				c     *cache.Cache
				total uint64
			}{
				{"IL1", &ct.il1, &e.batch.il, ref.IL1(), wantIL},
				{"DL1", &ct.dl1, &e.batch.dl, ref.DL1(), wantDL},
			} {
				occ := map[int]int{}
				for _, line := range side.cs.lines {
					occ[side.c.SetOf(line)]++
				}
				hot := make([]bool, len(side.cs.lines))
				var nhot int
				for id, line := range side.cs.lines {
					hot[id] = occ[side.c.SetOf(line)] > side.cs.ways
					if hot[id] {
						nhot++
					}
					if got := side.bs.hot[id]&(1<<k) != 0; got != hot[id] {
						t.Fatalf("seed %d %s line %d: batch hot %v, placement says %v",
							k, side.name, id, got, hot[id])
					}
				}
				var replays uint64
				for _, id := range side.cs.ids {
					if hot[id] {
						replays++
					}
				}
				if got := side.bs.hits[k] + side.bs.misses[k]; got != replays {
					t.Fatalf("seed %d %s: replayed %d accesses, want the %d accesses to %d hot lines",
						k, side.name, got, replays, nhot)
				}
				if cold := uint64(len(side.cs.lines) - nhot); side.bs.cold[k] != cold {
					t.Fatalf("seed %d %s: %d analytic lines, want %d", k, side.name, side.bs.cold[k], cold)
				}
				if got := side.bs.cold[k] + side.bs.misses[k]; got != side.total {
					t.Fatalf("seed %d %s: %d misses, per-seed run %d", k, side.name, got, side.total)
				}
			}
		}
	}
}

// TestBatchCampaignStateRestore verifies that after a batched campaign the
// engine's observable cache state (miss counters, replay continuation) is
// exactly that of a per-seed campaign's last run, for both exact-block and
// partial-block campaign lengths.
func TestBatchCampaignStateRestore(t *testing.T) {
	gen := rng.New(0x57A7E)
	tr := wideTrace(gen, 400)
	cont := wideTrace(gen, 200)
	for _, m := range policyCombos() {
		for _, n := range []int{2 * BatchK, 2*BatchK + 3} {
			fast := NewEngine(m)
			ref := NewEngine(m)
			ref.UseReference(true)
			fast.CampaignInto(tr, make([]float64, n), 0xC0, 0)
			ref.CampaignInto(tr, make([]float64, n), 0xC0, 0)
			fi, fd := fast.Misses()
			ri, rd := ref.Misses()
			if fi != ri || fd != rd {
				t.Fatalf("n=%d: post-campaign misses %d/%d, reference %d/%d", n, fi, fd, ri, rd)
			}
			if cf, cr := fast.Replay(cont), ref.Replay(cont); cf != cr {
				t.Fatalf("n=%d: replay continuation %d cycles, reference %d", n, cf, cr)
			}
		}
	}
}

// TestSharedCompiledConcurrentWorkers replays one shared CompiledTrace from
// many goroutines at once — the campaign-worker topology of package mbpta —
// and checks the assembled campaign against a single-engine run. Run under
// -race, this is the data-race oracle for CompiledTrace immutability.
func TestSharedCompiledConcurrentWorkers(t *testing.T) {
	gen := rng.New(0x5AFE)
	tr := wideTrace(gen, 500)
	m := DefaultModel()
	ct := Compile(tr, m)

	const workers = 8
	const perWorker = 3 * BatchK
	const root = 0xFA2
	got := make([]float64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := NewEngine(m)
			eng.SetCompiled(ct, tr)
			eng.CampaignInto(tr, got[w*perWorker:(w+1)*perWorker], root, w*perWorker)
		}(w)
	}
	wg.Wait()

	want := NewEngine(m).Campaign(tr, workers*perWorker, root)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d: concurrent workers %v, single engine %v", i, got[i], want[i])
		}
	}
}

// TestSetCompiledRejectsForeignGeometry pins the SetCompiled contract: a
// compilation for a different geometry (or line size) must be refused, and
// a matching one must be adopted without recompiling.
func TestSetCompiledRejectsForeignGeometry(t *testing.T) {
	tr := trace.FromLetters("ABCD", 32)
	m := DefaultModel()
	ct := Compile(tr, m)

	e := NewEngine(m)
	e.SetCompiled(ct, tr)
	if e.compiledFor(tr) != ct {
		t.Fatal("SetCompiled did not install the shared compilation")
	}

	other := m
	other.DL1.LineBytes = 16
	defer func() {
		if recover() == nil {
			t.Fatal("SetCompiled accepted a compilation for a different line size")
		}
	}()
	NewEngine(other).SetCompiled(ct, tr)
}

// TestBatchCampaignNoAllocs checks that steady-state batched campaigns do
// not allocate: scratch and generators are all reused across blocks.
func TestBatchCampaignNoAllocs(t *testing.T) {
	gen := rng.New(0xA110C)
	tr := wideTrace(gen, 300)
	e := NewEngine(DefaultModel())
	dst := make([]float64, 4*BatchK)
	e.CampaignInto(tr, dst, 1, 0) // warm up: compile + scratch allocation
	avg := testing.AllocsPerRun(20, func() {
		e.CampaignInto(tr, dst, 1, 0)
	})
	if avg != 0 {
		t.Fatalf("batched campaign allocates %.1f objects per call, want 0", avg)
	}
}
