package bigring

// Span stepping: the ring is partitioned into workers contiguous
// processor spans, and every step runs the spans' kernels either inline
// on the coordinating goroutine or as a fork/join over them.
//
// Why this is sound — and bit-identical at every span count:
//
//   - Within one direction at step t, the live buckets occupy pairwise
//     distinct processors. A bucket's visit touches only its own
//     per-bucket state (content, seen, best, frac, dropFrac, dropInt,
//     perInt) and its processor's per-processor state (cur, aInt,
//     maxPool, passed, aFrac), so the visits of one direction are
//     pairwise independent: any execution order — including a parallel
//     one — produces the same memory state. The only cross-bucket
//     quantities (maxCur, jobHops, messages, the live count) are a max
//     and three sums, merged from per-span accumulators after the step;
//     int64 max and addition are order-independent.
//   - Clockwise visits must all land before any counter-clockwise one
//     (a CCW bucket at processor j reads cur/aInt/passed/aFrac that the
//     CW visit at j may have changed — the generic engine delivers CW
//     first). Each direction is therefore its own phase, with a full
//     barrier between them when the spans fork.
//   - Positions are affine in t: at step t the clockwise bucket of
//     origin o sits at (o+t) mod m and the counter-clockwise bucket m+o
//     at (o-t) mod m. A span's processor range [lo,hi) therefore maps
//     to a contiguous (mod m) window of bucket slots that shifts one
//     slot per step — the "halo exchange" at the span boundary
//     degenerates to this one-slot window shift plus the step barrier,
//     with no boundary buffer to fill. The window is walked as at most
//     two segments contiguous in BOTH processor and bucket index.
//
// Liveness lives in one occupancy bitmap per direction, indexed by
// origin. Buckets are born only at step 0, so bits are set at launch
// and only cleared after that, and a segment's kernel visits the set
// bits of its slots: a step costs O(m/64 + live buckets), not O(m).
// Launch partitions origins at word boundaries, so no two spans set
// bits in one word. A later window starts anywhere, so the at most two
// words a span shares with its neighbours are edge words: the span
// reads them but records their dead bits in its accumulator, and the
// coordinator clears those after the join. Every other word the span
// clears in place.
//
// A step forks only when the previous step left at least fanOutMin
// buckets live; below that the fork/join costs more than the visits,
// and the coordinator runs the whole ring as one span. A run that never
// reaches fanOutMin spawns no goroutine. Table 1 rings (at most 2,000
// buckets) never fork.
//
// One kernel, visitWord, serves every variant: its variant switch takes
// the same branch on every visit of a run, and inlining the shared tail
// (drop, forward or die) into it measured about a quarter faster than
// per-variant kernels calling a shared tail function.
//
// Dispatch is allocation-free after the first fork: workers-1
// goroutines are spawned once (the coordinator runs span 0 inline) and
// parked on per-worker channels; a step sends one small job value per
// worker and phase, and channel transfers of such values do not touch
// the heap. Close releases the goroutines.

import (
	"math"
	"math/bits"

	"ringsched/internal/bucket"
	"ringsched/internal/ring"
)

// fanOutMin is the previous step's live-bucket count from which a step
// forks its spans to the workers. Measured on a 2-vCPU VM (go1.24,
// GOMAXPROCS 2, dense B rings at m = 12,500 to 10^5, forked and inline
// steps alternating): at 1,024–2,047 live buckets a forked step cost
// 26 µs against 21 µs inline, at 2,048–4,095 both cost 46 µs, and on
// the first steps of dense C1 and A2 runs at m = 10^5, with 16,000 or
// more live, the forked step was 1.3–1.4× faster. Tests set it to 0
// (fork every step) or math.MaxInt (never fork); nothing else writes it.
var fanOutMin = 4096

// parJob is one phase's work order, sent by value to every worker.
type parJob struct {
	kind int8
	t    int64
}

// The phase kinds: step 0's launch pass, then per-step clockwise and
// counter-clockwise passes. The pass kinds double as the bitmap index
// (kind-jobCW).
const (
	jobStart = int8(iota)
	jobCW
	jobCCW
)

// parAcc is one span's per-step accumulator for the cross-bucket
// reductions, plus the dead bits of the at most two bitmap words the
// span shares with a neighbour in the current phase. It fills one
// cache line, so two workers never write the same line.
type parAcc struct {
	maxCur   int64
	jobHops  int64
	messages int64
	alive    int64
	edgeAt   [2]int
	edge     [2]uint64
}

// spawn starts the persistent span workers (all but span 0, which the
// coordinating goroutine runs). Called once, lazily, from the first
// forked step — so an engine that never forks spawns nothing.
func (e *Engine) spawn() {
	e.spawned = true
	for i := range e.cmds {
		c := make(chan parJob, 1)
		e.cmds[i] = c
		w := i + 1
		go func() {
			for job := range c {
				e.runSpan(&e.accs[w], e.spanAt[w], e.spanAt[w+1], job)
				e.joins <- struct{}{}
			}
		}()
	}
}

// phase runs one phase, forked across the spans or inline as one
// whole-ring span, then clears the edge words' dead bits. The channel
// send/receive pairs carry the happens-before edges that make a forked
// phase's writes visible to the next phase's readers (and to the
// coordinator).
func (e *Engine) phase(kind int8, t int64, fork bool) {
	job := parJob{kind: kind, t: t}
	if !fork {
		e.runSpan(&e.accs[0], 0, e.m, job)
	} else {
		if !e.spawned {
			e.spawn()
		}
		for _, c := range e.cmds {
			c <- job
		}
		e.runSpan(&e.accs[0], e.spanAt[0], e.spanAt[1], job)
		for range e.cmds {
			<-e.joins
		}
	}
	if kind == jobStart {
		return
	}
	live := e.live[kind-jobCW]
	for i := range e.accs {
		a := &e.accs[i]
		for k, dead := range a.edge {
			live[a.edgeAt[k]] &^= dead
			a.edge[k] = 0
		}
	}
}

// mergeAccs folds every span's step accumulator into the engine totals,
// clears them for the next step, and returns the ring-wide count of
// buckets still live.
func (e *Engine) mergeAccs() int {
	var alive int64
	for i := range e.accs {
		a := &e.accs[i]
		e.maxCur = max(e.maxCur, a.maxCur)
		e.jobHops += a.jobHops
		e.messages += a.messages
		alive += a.alive
		*a = parAcc{}
	}
	return int(alive)
}

// runSpan executes one phase on the processor span [lo, hi).
func (e *Engine) runSpan(acc *parAcc, lo, hi int, job parJob) {
	if job.kind == jobStart {
		// Origins are partitioned at word boundaries, so each span sets
		// bits only in words it owns.
		if hi < e.m {
			hi &^= 63
		}
		e.launchSpan(acc, lo&^63, hi)
		return
	}
	e.stepSpan(acc, lo, hi, int(job.kind-jobCW), job.t)
}

// launchSpan runs step 0 for origins [lo, hi): every loaded processor
// launches its bucket(s), dropping at the origin first exactly as the
// generic nodes' Start does (clockwise before counter-clockwise on
// bidirectional runs, so the second bucket sees the first one's
// deposit). Origin i touches only processor i and buckets i / m+i, so
// origins partition cleanly.
func (e *Engine) launchSpan(acc *parAcc, lo, hi int) {
	m := e.m
	if m == 1 {
		// Degenerate ring: nothing to balance, keep everything.
		if w := e.x[0]; w > 0 {
			e.depositAcc(acc, 0, 0, w)
		}
		return
	}
	variantA := e.par.Variant == bucket.VariantA
	for i := lo; i < hi; i++ {
		x := e.x[i]
		if variantA {
			e.passed[i] = x
		}
		if x == 0 {
			continue
		}
		if !e.par.Bidirectional {
			e.seed(i, x, float64(x))
			e.launch(acc, i, i, x)
			continue
		}
		// Bidirectional: the payload splits in half (clockwise gets the
		// odd unit); both buckets know the full origin load x and each
		// fractional shadow bucket carries half of it.
		cwWork := (x + 1) / 2
		e.seed(i, x, float64(x)/2)
		e.seed(m+i, x, float64(x)/2)
		e.launch(acc, i, i, cwWork)
		e.launch(acc, m+i, i, x-cwWork)
	}
}

// launch performs bucket b's step-0 visit at its origin and, if work
// remains, sets its bit. A zero-work visit still runs the drop rule
// (the fractional shadow of a bidirectional variant C bucket mutates
// processor state even when the integral half is empty), matching the
// generic Start exactly.
func (e *Engine) launch(acc *parAcc, b, origin int, w int64) {
	rest := e.drop(acc, b, origin, w, e.launchQuota(b, origin), 0)
	if rest == 0 {
		return
	}
	e.content[b] = rest
	acc.jobHops += rest
	acc.alive++
	e.live[b/e.m][origin>>6] |= 1 << (origin & 63)
	if e.mc != nil {
		e.mc.Send(0, origin, dirOf(b, e.m), rest, rest)
	}
}

// drop deposits bucket b's share of w at processor j during step t —
// quota clamped to [0, w] — and returns what the bucket keeps.
func (e *Engine) drop(acc *parAcc, b, j int, w, quota, t int64) int64 {
	d := min(w, max(quota, 0))
	if d > 0 {
		e.depositAcc(acc, j, t, d)
		if e.dropInt != nil {
			e.dropInt[b] += d
		}
	}
	return w - d
}

// depositAcc drops w units at processor j during step t: the lazy
// rate-1 server absorbs it, and the intake and peak-pool accounting
// update in place, with the makespan fed through the span's
// accumulator. Pool occupancy at the generic engine's measurement point
// (phase 2 of step t, after all of the step's deliveries) is cur-t, and
// taking the max after every deposit of the step yields exactly that
// value.
func (e *Engine) depositAcc(acc *parAcc, j int, t, w int64) {
	c := max(e.cur[j], t) + w
	e.cur[j] = c
	e.aInt[j] += w
	acc.maxCur = max(acc.maxCur, c)
	e.maxPool[j] = max(e.maxPool[j], c-t)
}

// emitVisit reports one visit to the collector: the delivery, and the
// send if the bucket lives on.
func (e *Engine) emitVisit(b, j int, w, rest, t int64) {
	dir := dirOf(b, e.m)
	e.mc.Deliver(t, j, dir, w, w)
	if rest > 0 {
		e.mc.Send(t, j, dir, rest, rest)
	}
}

// dirOf is bucket b's direction: clockwise buckets are indexed below m.
func dirOf(b, m int) ring.Direction {
	if b < m {
		return ring.Clockwise
	}
	return ring.CounterClockwise
}

// stepSpan advances direction d's buckets across the span's
// processors for step t. The affine position map is inverted once: the
// span's processor range [lo, hi) is split at the single point where
// the bucket index wraps mod m, yielding at most two segments that are
// contiguous in processor AND bucket index with a constant offset
// between the two.
func (e *Engine) stepSpan(acc *parAcc, lo, hi, d int, t int64) {
	m := e.m
	tm := int(t % int64(m))
	var segs [2][3]int // {jStart, jEnd, bucketOffset}: b = j + offset
	if d == 0 {
		// Clockwise bucket at processor j is b = (j - tm) mod m,
		// wrapping at j == tm.
		segs[0] = [3]int{lo, min(hi, tm), m - tm}
		segs[1] = [3]int{max(lo, tm), hi, -tm}
	} else {
		// Counter-clockwise bucket at j is b = m + (j + tm) mod m,
		// wrapping at j == m - tm.
		segs[0] = [3]int{lo, min(hi, m-tm), m + tm}
		segs[1] = [3]int{max(lo, m-tm), hi, tm}
	}
	for _, sg := range segs {
		if sg[0] < sg[1] {
			base := sg[2] - d*m // slot = j + base
			e.walk(acc, d, sg[0]+base, sg[1]+base, sg[2], t)
		}
	}
}

// walk visits the live buckets in slots [s0, s1) of direction d's
// bitmap, one word at a time, and clears the bits of those that die.
// Bucket b = d*m + slot sits at processor j = b - off. A word that
// reaches outside [s0, s1) may be shared with a neighbouring span, so
// its dead bits wait in the accumulator for the coordinator; the
// bitmap's end at m is shared with nobody.
func (e *Engine) walk(acc *parAcc, d, s0, s1, off int, t int64) {
	live := e.live[d]
	bucketAt := d * e.m
	for wi := s0 >> 6; wi<<6 < s1; wi++ {
		lo := wi << 6
		word := live[wi]
		if lo < s0 {
			word &= ^uint64(0) << (s0 - lo)
		}
		if lo+64 > s1 {
			word &= ^uint64(0) >> (lo + 64 - s1)
		}
		if word == 0 {
			continue
		}
		dead := e.visitWord(acc, word, bucketAt+lo, off, t)
		switch {
		case dead == 0:
		case lo < s0:
			acc.edgeAt[0], acc.edge[0] = wi, dead
		case lo+64 > s1 && s1 != e.m:
			acc.edgeAt[1], acc.edge[1] = wi, dead
		default:
			live[wi] &^= dead
		}
	}
}

// visitWord visits the set bits of one bitmap word — bucket b = b0 +
// bit at processor j = b - off — and returns the bits of the buckets
// that died. The variant switch is the same on every visit, so it
// costs one predicted branch. The drop-rule floating-point expressions
// are copied from internal/bucket's dropAndForward, as in launchQuota,
// so results stay bit-identical.
func (e *Engine) visitWord(acc *parAcc, word uint64, b0, off int, t int64) (dead uint64) {
	cpar := e.par.C
	mm := int64(e.m)
	balancing := t >= mm
	for ; word != 0; word &= word - 1 {
		bit := bits.TrailingZeros64(word)
		b := b0 + bit
		j := b - off
		w := e.content[b]
		var quota int64
		switch {
		case balancing:
			// Wrap-around balancing (Lemma 5): every bucket is back at
			// its origin at t == m and drops ceil(remaining/m) per
			// processor from then on. The §4.1 fractional shadow is
			// write-only from here, so its bookkeeping is skipped.
			if t == mm {
				e.perInt[b] = (w + mm - 1) / mm
			}
			quota = e.perInt[b]
		case e.par.Variant == bucket.VariantA:
			// Target C*sqrt(work seen passing), minus the current pool.
			p := e.passed[j] + w
			e.passed[j] = p
			target := cpar * math.Sqrt(float64(p))
			quota = int64(target) - max(e.cur[j]-t, 0)
		case e.par.Variant == bucket.VariantB:
			// The monotone Lemma 1 target over the segment seen so far,
			// minus the processor's cumulative intake.
			s := e.seen[b] + e.x[j]
			e.seen[b] = s
			if tb := cpar * bucket.Lemma1Target(int(t)+1, s); tb > e.best[b] {
				e.best[b] = tb
			}
			quota = int64(e.best[b]) - e.aInt[j]
		case e.par.DirectRounding:
			s := e.seen[b] + e.x[j]
			e.seen[b] = s
			quota = int64(cpar*math.Sqrt(float64(s))) - e.aInt[j]
		default:
			// Variant C: the §4.1 integral algorithm with its fractional
			// I1/I2 shadow.
			s := e.seen[b] + e.x[j]
			e.seen[b] = s
			target := cpar * math.Sqrt(float64(s))
			d := min(e.frac[b], max(0, target-e.aFrac[j]))
			e.frac[b] -= d
			e.dropFrac[b] += d
			e.aFrac[j] += d
			i1 := int64(math.Ceil(e.dropFrac[b])) - e.dropInt[b]
			i2 := 1 + int64(math.Ceil(e.aFrac[j])) - e.aInt[j]
			quota = min(i1, i2)
		}
		acc.messages++
		rest := e.drop(acc, b, j, w, quota, t)
		if e.mc != nil {
			e.emitVisit(b, j, w, rest, t)
		}
		e.content[b] = rest
		if rest == 0 {
			dead |= 1 << bit
			continue
		}
		acc.jobHops += rest
		acc.alive++
	}
	return dead
}
