package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"

	"ringsched/internal/serve"
)

// Each workload stresses one layer and bypasses the others; README.md
// gives the reasons and the layer map.
type workloadDef struct {
	// conns is the closed loop's connection count. huge uses one: each of
	// its requests already runs GOMAXPROCS big-ring span workers.
	conns int
	// tailTop is the highest percentile tried for latency_tail_ms; lower
	// ones are tried until one has at least ten samples beyond it.
	tailTop float64
}

var workloads = map[string]workloadDef{
	"hot":    {conns: runtime.NumCPU(), tailTop: 99},
	"cold":   {conns: runtime.NumCPU(), tailTop: 95},
	"huge":   {conns: 1, tailTop: 90},
	"stream": {conns: runtime.NumCPU(), tailTop: 99},
}

// Pool sizes. Cold and huge requests must never repeat, so their pools
// hold several times what the current code serves per second; hot and
// stream inputs are cycled.
const (
	hotPool         = 8192
	coldWarm        = 48
	coldPerSecond   = 200
	hugeWarm        = len(hugeCycle)
	hugePerSecond   = 24
	streamWarm      = 48
	streamPool      = 128
	setupsPerRun    = 3
	verifyCold      = 16
	verifyHuge      = 3
	replayHot       = 2000
	replayLifecycle = 16
)

// bench is one workload's inputs plus the state of the daemon it is
// driving.
type bench struct {
	name string
	workloadDef
	hot    hotInputs
	pool   poolInputs // cold or huge
	stream streamInputs

	// warmBodies are the hot catalog's answers from the current daemon;
	// firstWarm are the first daemon's, which every later one must repeat.
	warmBodies, firstWarm [][]byte
	// results are the cold or huge answers by timed index.
	results []schedResult
}

// schedResult is the part of a computed answer the in-process engines
// must reproduce.
type schedResult struct {
	set                                bool
	makespan, steps, jobHops, messages int64
}

func newBench(name string, seed int64, seconds int) (*bench, error) {
	def, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want hot, cold, huge or stream)", name)
	}
	b := &bench{name: name, workloadDef: def}
	switch name {
	case "hot":
		b.hot = genHot(seed, hotPool)
	case "cold":
		b.pool = genPool(seed, "cold", coldWarm, max(coldPerSecond*seconds, coldCycle), coldRing)
	case "huge":
		b.pool = genPool(seed, "huge", hugeWarm, max(hugePerSecond*seconds, len(hugeCycle)), hugeRing)
	case "stream":
		b.stream = genStream(seed, streamWarm, streamPool)
	}
	return b, nil
}

var errExhausted = errors.New("request pool exhausted: the pool must hold more requests than a window can send")

func (b *bench) warmCount() int {
	switch b.name {
	case "hot":
		return len(b.hot.warm)
	case "stream":
		return len(b.stream.warm)
	default:
		return len(b.pool.warm)
	}
}

// resetDaemonState forgets the previous daemon's answers.
func (b *bench) resetDaemonState() {
	b.warmBodies = make([][]byte, len(b.hot.warm))
	b.results = make([]schedResult, len(b.pool.timed))
}

func (b *bench) engine() string {
	if b.name == "huge" {
		return "bigring"
	}
	return "pool"
}

// warmUnit serves warm-set item i.
func (b *bench) warmUnit(w *worker, i int) error {
	id := strconv.Itoa(i)
	switch b.name {
	case "hot":
		r := b.hot.warm[i]
		w.do(id, op{method: http.MethodPost, path: "/v1/schedule", body: r.body, check: func(rep reply) error {
			if rep.cache != "miss" {
				return fmt.Errorf("cache verdict %q, want miss", rep.cache)
			}
			b.warmBodies[i] = rep.body
			return nil
		}})
	case "stream":
		w.lifecycle(id, &b.stream.warm[i], false)
	default:
		r := b.pool.warm[i]
		w.do(id, op{method: http.MethodPost, path: "/v1/schedule", body: r.body, check: checkComputed(r, b.engine(), nil)})
	}
	return nil
}

// timedUnit serves timed item i.
func (b *bench) timedUnit(w *worker, i int) error {
	id := strconv.Itoa(i)
	switch b.name {
	case "hot":
		r := b.hot.timed[i%len(b.hot.timed)]
		w.do(id, op{method: http.MethodPost, path: "/v1/schedule", body: r.body, sample: true, check: func(rep reply) error {
			if rep.cache != "hit" {
				return fmt.Errorf("cache verdict %q, want hit", rep.cache)
			}
			if !bytes.Equal(rep.body, b.warmBodies[r.key]) {
				return fmt.Errorf("body differs from catalog entry %d's warm body", r.key)
			}
			return nil
		}})
	case "stream":
		w.lifecycle(id, &b.stream.timed[i%len(b.stream.timed)], true)
	default:
		if i >= len(b.pool.timed) {
			return errExhausted
		}
		r := b.pool.timed[i]
		w.do(id, op{method: http.MethodPost, path: "/v1/schedule", body: r.body, sample: true, check: checkComputed(r, b.engine(), &b.results[i])})
	}
	return nil
}

// checkWarmRepeat fails every catalog entry whose answer differs from the
// first daemon's: a fresh daemon must compute byte-identical bodies.
func (b *bench) checkWarmRepeat(t *tally) {
	if b.name != "hot" {
		return
	}
	if b.firstWarm == nil {
		b.firstWarm = b.warmBodies
		return
	}
	for i := range b.warmBodies {
		if b.warmBodies[i] != nil && !bytes.Equal(b.warmBodies[i], b.firstWarm[i]) {
			t.fail(fmt.Sprintf("catalog entry %d: warm body differs from the first daemon's", i))
		}
	}
}

// checkComputed is the gate for a cold or huge answer: a miss, for the
// request's canonical instance and algorithm, from the expected engine.
// The answer is stored in out for the engine replay.
func checkComputed(r request, engine string, out *schedResult) func(reply) error {
	return func(rep reply) error {
		if rep.cache != "miss" {
			return fmt.Errorf("cache verdict %q, want miss", rep.cache)
		}
		var resp serve.ScheduleResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return err
		}
		if resp.Fingerprint != r.fp || resp.Algorithm != r.alg || resp.Engine != engine {
			return fmt.Errorf("answer %s/%s/%s, want %s/%s/%s", resp.Fingerprint, resp.Algorithm, resp.Engine, r.fp, r.alg, engine)
		}
		if out != nil {
			*out = schedResult{true, resp.Makespan, resp.Steps, resp.JobHops, resp.Messages}
		}
		return nil
	}
}

// lifecycle runs one session: create, every wave, delete. Each wave's
// stepping must process exactly the work it appended, and the terminal
// snapshot must equal the one-shot online run. Appends are the sampled
// requests when sample is set.
func (w *worker) lifecycle(id string, lc *lifecycle, sample bool) {
	var created serve.SessionCreateResponse
	_, err := w.do(id+"-c", op{method: http.MethodPost, path: "/v1/session", body: sessionCreateBody, check: func(rep reply) error {
		if err := json.Unmarshal(rep.body, &created); err != nil {
			return err
		}
		if created.ID == "" || created.M != streamM {
			return fmt.Errorf("created session %q with m=%d, want m=%d", created.ID, created.M, streamM)
		}
		return nil
	}})
	if err != nil {
		return
	}
	path := "/v1/session/" + created.ID
	for k, body := range lc.waves {
		_, err := w.do(id+"-"+strconv.Itoa(k), op{method: http.MethodPost, path: path + "/arrivals", body: body, sample: sample, check: func(rep reply) error {
			var resp serve.SessionArrivalsResponse
			if err := json.Unmarshal(rep.body, &resp); err != nil {
				return err
			}
			var sum int64
			for _, d := range resp.DeltaProcessed {
				sum += d
			}
			if sum != lc.waveWork[k] || resp.Accepted != streamBatches || !resp.Quiescent {
				return fmt.Errorf("wave %d processed %d of %d jobs (accepted %d, quiescent %t)", k, sum, lc.waveWork[k], resp.Accepted, resp.Quiescent)
			}
			return nil
		}})
		if err != nil {
			return
		}
	}
	w.do(id+"-d", op{method: http.MethodDelete, path: path, check: func(rep reply) error {
		var snap serve.SessionSnapshot
		if err := json.Unmarshal(rep.body, &snap); err != nil {
			return err
		}
		f := lc.final
		if !snap.Terminal || !snap.Quiescent || snap.TotalWork != lc.total ||
			snap.Makespan != f.Makespan || snap.MaxFlowTime != f.MaxFlowTime || snap.Steps != f.Steps ||
			snap.JobHops != f.JobHops || snap.Migrated != f.Migrated || !slices.Equal(snap.Processed, f.Processed) {
			return fmt.Errorf("terminal snapshot differs from the one-shot online run")
		}
		return nil
	}})
}
