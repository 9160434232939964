package proc

import (
	"math/bits"

	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file implements the batched campaign replay: BatchK run seeds share
// every pass over a cache's compiled ID stream, and each seed replays only
// the accesses that can behave differently from a cold-miss-then-hit
// pattern.
//
// A campaign replays one immutable CompiledTrace 10^5-10^6 times. For a
// block of BatchK seeds, the placement of every distinct line is evaluated
// in one flat loop (the same pin, modulo and keyed-hash logic as
// cache.SetOf, with the pin and policy hoisted out), which also counts how
// many distinct lines each seed places into each set. A line is hot for a
// seed when its set holds more than Ways distinct lines. The rest of the
// run is then answered per set:
//
//   - Sets are independent: an access reads and writes only its own set.
//   - A set that never overflows never evicts, so each of its lines misses
//     exactly once, on its first access, and hits afterwards. Its lines are
//     answered analytically.
//   - Replacement draws come from each cache's own generator, and only on
//     misses to full sets. Those happen only in overflowing sets, so
//     replaying the hot lines in stream order draws the same values in the
//     same order as a whole-stream replay.
//   - LRU compares ticks only within a set, so the position in the cache's
//     stream serves as the tick.
//   - Miss jitter is one stream per run, and its contribution is the sum of
//     its first M draws, M being the run's total miss count. It is drawn
//     after counting.
//
// One replay loop per cache scans that cache's stream once per block,
// skips tokens whose line is hot for no seed, and replays each remaining
// token for every seed it is hot for. A cache with no hot line in the block
// is not scanned at all. Under parametric random placement with working
// sets below capacity — the paper's platform on the evaluation benchmarks —
// most seeds have no hot line, and the seeds that do have few.
//
// A batch run is bit-identical to a per-seed Run with the same seed;
// batch_test.go enforces this against both the per-seed compiled path and
// the uncompiled reference engine.

// BatchK is the number of campaign seeds placed and replayed per pass.
// Callers that split campaigns into blocks (package mbpta) keep block sizes
// in multiples of BatchK so whole blocks stay on the batched path. 8 seeds
// keep the per-block set state (BatchK copies of both caches' contents)
// inside L1 alongside the stream, and let one byte hold a line's hot mask.
const BatchK = 8

// A line's hot mask has one bit per seed of the block.
const _ uint8 = 1<<BatchK - 1

// batchSide is the struct-of-arrays replay state of one cache for a block
// of BatchK seeds. Slices indexed by [id*BatchK+k] hold per-line, per-seed
// values; slices of BatchK contiguous per-seed blocks hold set state.
type batchSide struct {
	keys    [BatchK]uint64         // per-seed placement hash keys
	rands   [BatchK]rng.Xoshiro256 // per-seed replacement streams
	cold    [BatchK]uint64         // per-seed lines that are not hot: one miss each
	hits    [BatchK]uint64         // per-seed replayed hits
	misses  [BatchK]uint64         // per-seed replayed misses
	setBase []int32                // [id*BatchK+k] -> k*sets*ways + set*ways
	hot     []uint8                // [id] -> bit k set when line id is hot for seed k
	occ     []int32                // [set base] distinct lines placed in that set
	content []int32                // BatchK blocks of sets*ways line IDs
	lruTick []uint64               // BatchK blocks of per-way ticks (LRU only)
}

// batchState is an engine's batched-campaign scratch, reused across blocks.
type batchState struct {
	il, dl batchSide
	jitter rng.Xoshiro256 // miss-jitter stream, reseeded per run
	seeds  [BatchK]uint64
}

// CampaignBatchInto is CampaignInto on the batched replay path: it fills
// dst with runs offset.. of the campaign rooted at root, placing BatchK
// seeds per pass and replaying only their hot lines. Results are
// bit-identical to a loop of per-seed Runs. The trailing len(dst)%BatchK
// runs go through the per-seed path; when the length divides evenly, the
// last run's per-seed replay is deferred instead (restoreCt/restoreSeed)
// and executed by materialize only if an accessor actually observes the
// engine's post-campaign cache state — campaign drivers never do, so
// back-to-back blocks pay nothing for state fidelity.
//
//pubtac:fastpath campaign
func (e *Engine) CampaignBatchInto(tr trace.Trace, dst []float64, root uint64, offset int) {
	n := len(dst)
	if n == 0 {
		return
	}
	ct := e.compiledFor(tr)
	if e.batch == nil {
		e.batch = new(batchState)
	}
	i := 0
	for ; i+BatchK <= n; i += BatchK {
		e.runBatchBlock(ct, dst[i:i+BatchK], root, offset+i)
	}
	for ; i < n; i++ {
		dst[i] = float64(e.RunCompiled(ct, rng.Stream(root, offset+i)))
	}
	if n%BatchK == 0 {
		e.pending = nil
		e.restoreCt = ct
		e.restoreSeed = rng.Stream(root, offset+n-1)
	}
}

// runBatchBlock executes runs offset..offset+BatchK-1 into dst.
func (e *Engine) runBatchBlock(ct *CompiledTrace, dst []float64, root uint64, offset int) {
	b := e.batch
	for k := range b.seeds {
		b.seeds[k] = rng.Stream(root, offset+k)
	}
	b.il.run(&ct.il1, e.il1, &b.seeds, ilSeedSalt)
	b.dl.run(&ct.dl1, e.dl1, &b.seeds, dlSeedSalt)
	n := ct.Len()
	for k, seed := range b.seeds {
		misses := b.il.cold[k] + b.il.misses[k] + b.dl.cold[k] + b.dl.misses[k]
		if e.model.Lat.MissJitter > 0 {
			b.jitter.Reseed(rng.Mix64(seed ^ jitterSeedSalt))
		}
		dst[k] = float64(e.runCycles(n, misses, &b.jitter))
	}
}

// run places the block's seeds on this cache and replays the accesses to
// their hot lines, leaving each seed's analytic cold misses in cold and its
// replayed hits and misses in hits and misses.
func (bs *batchSide) run(side *compiledSide, c *cache.Cache, seeds *[BatchK]uint64, salt uint64) {
	bs.hits, bs.misses = [BatchK]uint64{}, [BatchK]uint64{}
	hotSeeds := bs.place(side, c, seeds, salt)
	if hotSeeds == 0 {
		return
	}
	for k := range BatchK {
		if hotSeeds&(1<<k) != 0 {
			bs.rands[k].Reseed(cache.ReplacementSeed(rng.Mix64(seeds[k] ^ salt)))
		}
	}
	// Invalidate only the hot sets: the replay touches no other set.
	// lruTick needs no reset, as in the per-seed path: LRU victims are only
	// chosen among ways filled this run.
	ways := int32(side.ways)
	for id, m := range bs.hot {
		for ; m != 0; m &= m - 1 {
			base := bs.setBase[id*BatchK+bits.TrailingZeros8(m)]
			for w := range ways {
				bs.content[base+w] = invalidID
			}
		}
	}
	cfg := c.Config()
	if side.ways == 2 && cfg.Replacement == cache.RandomReplacement {
		bs.replay2WayRandom(side.ids)
	} else {
		bs.replayGeneric(side.ids, ways, cfg.Replacement == cache.LRUReplacement)
	}
}

// place sizes the side's scratch, computes every (line, seed) set base and
// each seed's per-set occupancy, and from it the hot masks and cold counts.
// It returns the seeds that have at least one hot line.
func (bs *batchSide) place(side *compiledSide, c *cache.Cache,
	seeds *[BatchK]uint64, salt uint64) uint8 {

	nl := len(side.lines)
	nways := side.sets * side.ways
	if cap(bs.setBase) < nl*BatchK {
		bs.setBase = make([]int32, nl*BatchK)
		bs.hot = make([]uint8, nl)
	}
	bs.setBase = bs.setBase[:nl*BatchK]
	bs.hot = bs.hot[:nl]
	if cap(bs.content) < nways*BatchK {
		bs.content = make([]int32, nways*BatchK)
		bs.lruTick = make([]uint64, nways*BatchK)
		bs.occ = make([]int32, nways*BatchK) // all zero between calls
	}
	bs.content = bs.content[:nways*BatchK]
	bs.lruTick = bs.lruTick[:nways*BatchK]
	bs.occ = bs.occ[:nways*BatchK]

	random := c.Config().Placement == cache.RandomPlacement
	if random {
		for k := range BatchK {
			bs.keys[k] = cache.PlacementKey(rng.Mix64(seeds[k] ^ salt))
		}
	}
	pin := c.Pin()
	mask := uint64(side.sets - 1)
	ways := int32(side.ways)
	block := int32(nways)
	var over uint8 // seeds with an overflowing set
	for id, line := range side.lines {
		row := bs.setBase[id*BatchK : (id+1)*BatchK]
		shared := int32(-1) // the set of every seed, when placement ignores the seed
		switch {
		case pin != nil && pin.Lines[line]:
			shared = int32(pin.Set)
		case !random:
			shared = int32(line & mask)
		}
		if shared >= 0 {
			for k := range row {
				base := int32(k)*block + shared*ways
				row[k] = base
				if bs.occ[base]++; bs.occ[base] > ways {
					over |= 1 << k
				}
			}
			continue
		}
		for k := range row {
			base := int32(k)*block + int32(rng.Mix64(line^bs.keys[k])&mask)*ways
			row[k] = base
			if bs.occ[base]++; bs.occ[base] > ways {
				over |= 1 << k
			}
		}
	}

	for k := range bs.cold {
		bs.cold[k] = uint64(nl)
	}
	if over == 0 {
		clear(bs.hot)
	} else {
		for id := range bs.hot {
			row := bs.setBase[id*BatchK : (id+1)*BatchK]
			var m uint8
			for o := over; o != 0; o &= o - 1 {
				k := bits.TrailingZeros8(o)
				if bs.occ[row[k]] > ways {
					m |= 1 << k
					bs.cold[k]--
				}
			}
			bs.hot[id] = m
		}
	}
	// Leave occ all zero for the next block: clearing only the sets this
	// block touched is cheaper than clearing every set of every seed.
	for _, base := range bs.setBase {
		bs.occ[base] = 0
	}
	return over
}

// replay2WayRandom replays the hot accesses of ids on 2-way sets under
// random replacement, the paper's platform.
func (bs *batchSide) replay2WayRandom(ids []int32) {
	hot, setBase, c := bs.hot, bs.setBase, bs.content
	for _, id := range ids {
		for m := hot[id]; m != 0; m &= m - 1 {
			k := bits.TrailingZeros8(m)
			if base := setBase[int(id)*BatchK+k]; c[base] == id || c[base+1] == id {
				bs.hits[k]++
			} else {
				bs.misses[k]++
				fill2WayRandom(c, base, id, &bs.rands[k])
			}
		}
	}
}

// replayGeneric replays the hot accesses of ids with full reference
// semantics (any associativity, random or LRU replacement).
func (bs *batchSide) replayGeneric(ids []int32, ways int32, lru bool) {
	hot, setBase, c := bs.hot, bs.setBase, bs.content
	for i, id := range ids {
		for m := hot[id]; m != 0; m &= m - 1 {
			k := bits.TrailingZeros8(m)
			if accessSet(c, bs.lruTick, setBase[int(id)*BatchK+k], id, ways, lru,
				&bs.rands[k], uint64(i)) {
				bs.hits[k]++
			} else {
				bs.misses[k]++
			}
		}
	}
}
