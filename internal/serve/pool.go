package serve

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ringsched/internal/metrics"
)

// pool is the bounded compute pool behind the API handlers: a fixed set
// of worker goroutines draining a bounded queue. Handlers submit
// closures with trySubmit, which never blocks — when the queue is full
// the request is refused so the HTTP layer can answer 429 + Retry-After
// instead of letting latency collapse under overload (backpressure at
// admission, not at the socket).
//
// Every task is stamped at enqueue time; the worker that picks it up
// computes how long it sat queued and hands both the stamp and the wait
// to the task, so the serving layer can report queue wait and execution
// time as separate histograms (a saturated pool and a slow engine look
// identical in total latency, and the split is what tells them apart).
//
// Each task runs under a per-request panic guard: a panicking
// computation poisons only its own request (the worker survives and the
// handler gets an error), never the daemon.
type pool struct {
	queue chan poolTask
	wg    sync.WaitGroup
	busy  atomic.Int64 // workers currently executing a task

	mu     sync.RWMutex
	closed bool
}

// poolTask is one queued unit of work plus its admission stamp.
type poolTask struct {
	fn       func(enqueued time.Time, wait time.Duration)
	enqueued time.Time
}

// newPool starts `workers` goroutines over a queue of depth `depth`.
func newPool(workers, depth int) *pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &pool{queue: make(chan poolTask, depth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.queue {
				p.busy.Add(1)
				task.fn(task.enqueued, time.Since(task.enqueued))
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// trySubmit enqueues task without blocking; false means the queue is
// full (or the pool is draining) and the caller should shed the load.
// The task receives its enqueue stamp and the queue wait it incurred.
func (p *pool) trySubmit(task func(enqueued time.Time, wait time.Duration)) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- poolTask{fn: task, enqueued: time.Now()}:
		return true
	default:
		return false
	}
}

// busyWorkers reports how many workers are mid-task right now.
func (p *pool) busyWorkers() int64 { return p.busy.Load() }

// queueLen reports how many tasks sit queued but unstarted.
func (p *pool) queueLen() int { return len(p.queue) }

// drain stops admission, lets the workers finish every queued task, and
// returns when the last worker has exited. The RWMutex handshake makes
// close(queue) safe: no trySubmit can be between its closed-check and
// its send while the write lock is held.
func (p *pool) drain() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}

// guard wraps a computation in per-request panic isolation: the
// recovered panic comes back as an error instead of unwinding a worker.
func guard(stats *metrics.Counters[stat], f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stats.Inc(statPanics)
			err = fmt.Errorf("serve: request panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}
