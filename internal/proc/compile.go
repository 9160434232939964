package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file implements the compiled-trace fast path of the engine.
//
// A trace is replayed 10^5-10^6 times per campaign, so per-access work
// dominates the whole analysis. The reference replay pays, on every access:
// a byte-address shift, a pin lookup, and a Mix64 placement hash — even
// though under parametric random placement the set of a line is fixed for
// the duration of a run. Compilation hoists all of that out of the run
// loop: the trace is projected onto per-cache dense line IDs once, and each
// run evaluates the placement of each *distinct* line once, replaying the
// ID stream against flat ID-indexed set state.
//
// The compiled replay is bit-identical to the reference engine: it draws
// replacement victims and miss jitter from the same generators in the same
// order, and it writes the end-of-run cache state (contents, LRU
// timestamps, hit/miss counters) back into the Cache objects, so Misses(),
// pinning, and Run-followed-by-Replay behave exactly as before. The golden
// and equivalence tests in golden_test.go and compile_test.go enforce this.

// invalidID is the sentinel stored in compiled set state for an empty way,
// replacing the reference engine's separate valid[] array. Line IDs are
// dense non-negative ints, so a single comparison covers both "occupied by
// another line" and "empty".
const invalidID = -1

// CompiledTrace is a trace pre-projected onto the line geometry of a
// platform model: per cache, the distinct line addresses plus the stream of
// dense line IDs of that cache's accesses. Compile once, replay many times;
// a CompiledTrace is immutable and may be shared across engines and
// goroutines.
//
// The two caches are independent (separate placement, contents and
// replacement generators), and the timing model is additive, so a run's
// cycles depend on the interleaving of IL1 and DL1 accesses only through
// the miss-jitter stream — whose sum is the sum of its first misses draws
// in any order. Keeping one stream per cache therefore loses nothing, and
// lets each cache be replayed (or skipped) on its own.
type CompiledTrace struct {
	il1 compiledSide
	dl1 compiledSide
}

// compiledSide is the per-cache projection: the distinct line addresses in
// first-appearance order (the dense ID of a line is its index), the ID
// stream of the cache's accesses in trace order, plus the geometry it was
// compiled against.
type compiledSide struct {
	lines []uint64
	ids   []int32
	sets  int
	ways  int
	shift uint // byte-address-to-line shift the projection used
}

// Len returns the number of accesses in the compiled trace.
func (ct *CompiledTrace) Len() int { return len(ct.il1.ids) + len(ct.dl1.ids) }

// DistinctLines returns the number of distinct IL1 and DL1 lines.
func (ct *CompiledTrace) DistinctLines() (il1, dl1 int) {
	return len(ct.il1.lines), len(ct.dl1.lines)
}

// side returns the projection of one cache side.
func (ct *CompiledTrace) side(k trace.Kind) *compiledSide {
	if k == trace.Instr {
		return &ct.il1
	}
	return &ct.dl1
}

// SideLines returns the distinct line addresses of one cache side in
// first-appearance order — the dense ID of a line is its index. The slice
// is the compilation's own and must be treated as read-only; package tac
// builds its posting-list index on these IDs instead of re-projecting the
// trace through a map of its own.
func (ct *CompiledTrace) SideLines(k trace.Kind) []uint64 { return ct.side(k).lines }

// SideIDs appends the dense line IDs of one cache side, in stream order,
// to dst and returns it — the side's line sequence in the ID space of
// SideLines.
func (ct *CompiledTrace) SideIDs(k trace.Kind, dst []int32) []int32 {
	return append(dst, ct.side(k).ids...)
}

// Compile projects tr onto the cache geometry of m. The result replays
// bit-identically to the reference engine on any engine built for the same
// model.
func Compile(tr trace.Trace, m Model) *CompiledTrace {
	ct := &CompiledTrace{
		il1: compiledSide{sets: m.IL1.Sets, ways: m.IL1.Ways, shift: m.IL1.LineShift()},
		dl1: compiledSide{sets: m.DL1.Sets, ways: m.DL1.Ways, shift: m.DL1.LineShift()},
	}
	ilIDs := make(map[uint64]int32)
	dlIDs := make(map[uint64]int32)
	for _, a := range tr {
		side, ids := &ct.dl1, dlIDs
		if a.Kind == trace.Instr {
			side, ids = &ct.il1, ilIDs
		}
		line := a.Addr >> side.shift
		id, ok := ids[line]
		if !ok {
			id = int32(len(side.lines))
			ids[line] = id
			side.lines = append(side.lines, line)
		}
		side.ids = append(side.ids, id)
	}
	return ct
}

// sideState is an engine's per-cache replay scratch, reused across runs.
type sideState struct {
	setBase []int32  // line ID -> set*ways base index, computed once per run
	content []int32  // sets*ways line IDs, invalidID = empty way
	lruTick []uint64 // per-way last-touch tick (LRU replacement only)
	hits    uint64
	misses  uint64
	sparse  bool // only the sets reachable from setBase were cleared
}

// prepare sizes the scratch for side and computes this run's placement of
// every distinct line through cache.SetOf — the same pin, modulo and keyed
// hash logic as the reference engine, evaluated once per distinct line
// instead of once per access.
func (ss *sideState) prepare(side *compiledSide, c *cache.Cache) {
	if cap(ss.setBase) < len(side.lines) {
		ss.setBase = make([]int32, len(side.lines))
	}
	ss.setBase = ss.setBase[:len(side.lines)]
	nways := side.sets * side.ways
	if cap(ss.content) < nways {
		ss.content = make([]int32, nways)
		ss.lruTick = make([]uint64, nways)
	}
	ss.content = ss.content[:nways]
	ss.lruTick = ss.lruTick[:nways]

	ways := int32(side.ways)
	for id, line := range side.lines {
		ss.setBase[id] = int32(c.SetOf(line)) * ways
	}
	// Invalidate only what this run can read: the replay touches no set
	// outside setBase, so when the trace uses few distinct lines it is
	// cheaper to clear their sets (duplicates are idempotent) than the
	// whole array. writeBack skips unreachable sets under the same flag.
	if ss.sparse = len(side.lines)*side.ways < nways; ss.sparse {
		for _, base := range ss.setBase {
			for w := int32(0); w < ways; w++ {
				ss.content[base+w] = invalidID
			}
		}
	} else {
		for i := range ss.content {
			ss.content[i] = invalidID
		}
	}
	// lruTick needs no reset: LRU victims are only ever chosen among ways
	// filled this run, whose ticks were all written this run (the reference
	// engine relies on the same property across its Flush).
}

// replay replays the side's ID stream against the prepared state, drawing
// replacement victims from the cache's own generator, and records the
// run's hits and misses. The per-cache access tick of LRU replacement is
// the position in the side's stream, as in the reference engine.
func (ss *sideState) replay(side *compiledSide, cc *cache.Cache) {
	cfg, rnd := cc.Config(), cc.Rand()
	set, c := ss.setBase, ss.content
	var misses uint64
	if side.ways == 2 && cfg.Replacement == cache.RandomReplacement {
		for _, id := range side.ids {
			if base := set[id]; c[base] != id && c[base+1] != id {
				misses++
				fill2WayRandom(c, base, id, rnd)
			}
		}
	} else {
		ways, lru := int32(side.ways), cfg.Replacement == cache.LRUReplacement
		for i, id := range side.ids {
			if !accessSet(c, ss.lruTick, set[id], id, ways, lru, rnd, uint64(i)+1) {
				misses++
			}
		}
	}
	ss.hits, ss.misses = uint64(len(side.ids))-misses, misses
}

// fill2WayRandom installs id in the 2-way set at base after a miss under
// random replacement — the paper's platform: in an empty way if there is
// one, otherwise over a random victim. The hit test it pairs with is two
// compares, written out in the replay loops so it inlines there; random
// replacement never reads the LRU ticks, so nothing else is kept.
func fill2WayRandom(c []int32, base, id int32, rnd *rng.Xoshiro256) {
	switch {
	case c[base] == invalidID:
		c[base] = id
	case c[base+1] == invalidID:
		c[base+1] = id
	default:
		c[base+int32(rnd.Intn(2))] = id
	}
}

// accessSet replays one access to the set at base with the full reference
// semantics (any associativity, random or LRU replacement) and reports
// whether it hit. tick orders the cache's accesses for LRU.
func accessSet(c []int32, lruTick []uint64, base, id, ways int32, lru bool,
	rnd *rng.Xoshiro256, tick uint64) bool {
	for w := int32(0); w < ways; w++ {
		if c[base+w] == id {
			lruTick[base+w] = tick
			return true
		}
	}
	for w := int32(0); w < ways; w++ {
		if c[base+w] == invalidID {
			c[base+w] = id
			lruTick[base+w] = tick
			return false
		}
	}
	victim := int32(0)
	if !lru {
		victim = int32(rnd.Intn(int(ways)))
	} else {
		oldest := lruTick[base]
		for w := int32(1); w < ways; w++ {
			if lruTick[base+w] < oldest {
				oldest = lruTick[base+w]
				victim = w
			}
		}
	}
	c[base+victim] = id
	lruTick[base+victim] = tick
	return false
}

// writeBack installs the end-of-run compiled state into the Cache object,
// making a compiled run indistinguishable from a reference replay: contents
// and counters match exactly, and under LRU so do the per-way timestamps.
// The engine calls it lazily — only when something actually reads the cache
// state — so campaigns never pay for it.
func (ss *sideState) writeBack(side *compiledSide, c *cache.Cache) {
	lines, valid, lru := c.RunState()
	install := func(idx int32) {
		if id := ss.content[idx]; id >= 0 {
			lines[idx] = side.lines[id]
			valid[idx] = true
			lru[idx] = ss.lruTick[idx]
		}
	}
	if ss.sparse {
		// Sets unreachable from setBase were neither cleared nor written;
		// their scratch content is stale and must not be installed.
		for _, base := range ss.setBase {
			for w := int32(0); w < int32(side.ways); w++ {
				install(base + w)
			}
		}
	} else {
		for idx := range ss.content {
			install(int32(idx))
		}
	}
	c.SetCounters(ss.hits+ss.misses, ss.hits, ss.misses)
}

// matches reports whether the projection was compiled for cache geometry
// cfg (same sets, ways and line size — everything Compile depends on).
func (cs *compiledSide) matches(cfg cache.Config) bool {
	return cs.sets == cfg.Sets && cs.ways == cfg.Ways && cs.shift == cfg.LineShift()
}

// SetCompiled installs ct, a shared compilation of tr, as this engine's
// compiled form of tr. A CompiledTrace is immutable, so one compilation can
// be handed to every campaign worker; each engine keeps only its private
// per-seed replay scratch. It panics when ct was compiled for a different
// cache geometry than the engine's model (programming error).
func (e *Engine) SetCompiled(ct *CompiledTrace, tr trace.Trace) {
	if !ct.il1.matches(e.model.IL1) || !ct.dl1.matches(e.model.DL1) {
		panic("proc: SetCompiled with a trace compiled for a different cache geometry")
	}
	e.ct, e.ctTrace = ct, tr
}

// compiledFor returns the compiled form of tr, reusing the cached one when
// tr is the same slice as on the previous call. Traces are treated as
// immutable throughout the repository (PUB builds new ones), so slice
// identity — same backing array, same length — is a sound cache key.
func (e *Engine) compiledFor(tr trace.Trace) *CompiledTrace {
	if e.ct != nil && len(tr) == len(e.ctTrace) &&
		(len(tr) == 0 || &tr[0] == &e.ctTrace[0]) {
		return e.ct
	}
	e.ct = Compile(tr, e.model)
	e.ctTrace = tr
	return e.ct
}

// RunCompiled executes ct as one program run with the given seed, exactly
// like Run on the trace ct was compiled from. ct must have been compiled
// for this engine's model.
func (e *Engine) RunCompiled(ct *CompiledTrace, seed uint64) uint64 {
	e.reseed(seed)
	return e.replayCompiled(ct)
}

// materialize flushes the pending compiled run state into the Cache
// objects. It is called lazily by every accessor that observes cache state
// (Misses, IL1, DL1, Replay), so back-to-back campaign runs skip the
// write-back entirely. A deferred batch-campaign restore (see
// CampaignBatchInto) is executed first: it replays the campaign's last run
// per-seed, which leaves its state pending here.
func (e *Engine) materialize() {
	if e.restoreCt != nil {
		ct := e.restoreCt
		e.restoreCt = nil
		e.RunCompiled(ct, e.restoreSeed)
	}
	if e.pending == nil {
		return
	}
	e.ils.writeBack(&e.pending.il1, e.il1)
	e.dls.writeBack(&e.pending.dl1, e.dl1)
	e.pending = nil
}

// replayCompiled replays ct against the freshly reseeded caches.
//
//pubtac:fastpath replay
func (e *Engine) replayCompiled(ct *CompiledTrace) uint64 {
	e.ils.prepare(&ct.il1, e.il1)
	e.dls.prepare(&ct.dl1, e.dl1)
	e.ils.replay(&ct.il1, e.il1)
	e.dls.replay(&ct.dl1, e.dl1)
	e.pending = ct
	return e.runCycles(ct.Len(), e.ils.misses+e.dls.misses, e.jitter)
}

// runCycles converts a run's classification into the additive timing
// model: the in-order pipeline's cost is linear in hits and misses, so the
// replay loops only classify accesses and the arithmetic happens once per
// run. With MissJitter on, every miss adds one draw from jit, the run's
// miss-jitter stream. The reference engine draws them as the misses occur,
// but a sum of the first misses draws does not depend on which miss took
// which draw, so they are drawn here, after counting.
func (e *Engine) runCycles(n int, misses uint64, jit *rng.Xoshiro256) uint64 {
	lat := e.model.Lat
	cycles := lat.Issue*uint64(n) + lat.Hit*(uint64(n)-misses) + lat.Miss*misses
	if lat.MissJitter > 0 {
		for range misses {
			cycles += jit.Uint64() % lat.MissJitter
		}
	}
	return cycles
}
