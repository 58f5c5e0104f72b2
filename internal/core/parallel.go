package core

import "sync"

// sealWorkers implements the paper's parallelization optimization (§IV-C):
// each tree level gets a dedicated goroutine that aggregates freshly closed
// nodes, taking the aggregation cost off the insertion thread. Correctness
// does not depend on worker progress — every node's aggregation is guarded
// by its sealState CAS latch (sealNow), which queries run synchronously on
// demand.
type sealWorkers struct {
	s       *Summary
	mu      sync.Mutex
	chans   map[int32]chan *node
	jobs    sync.WaitGroup // outstanding scheduled seals
	runners sync.WaitGroup // live worker goroutines
	stopped bool
}

func newSealWorkers(s *Summary) *sealWorkers {
	return &sealWorkers{s: s, chans: make(map[int32]chan *node)}
}

// schedule hands a closed node to its level worker; if the worker's queue
// is full or the pool is stopped, the aggregation runs inline instead.
func (w *sealWorkers) schedule(n *node) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		w.s.sealNow(n)
		return
	}
	ch, ok := w.chans[n.level]
	if !ok {
		ch = make(chan *node, 256)
		w.chans[n.level] = ch
		w.runners.Add(1)
		go w.run(ch)
	}
	w.mu.Unlock()
	w.jobs.Add(1)
	select {
	case ch <- n:
	default:
		w.jobs.Done()
		w.s.sealNow(n)
	}
}

func (w *sealWorkers) run(ch chan *node) {
	defer w.runners.Done()
	for n := range ch {
		w.s.sealNow(n)
		w.jobs.Done()
	}
}

// drain blocks until every scheduled aggregation has completed.
func (w *sealWorkers) drain() { w.jobs.Wait() }

// stop drains outstanding work and terminates the workers. Subsequent
// schedule calls run inline.
func (w *sealWorkers) stop() {
	w.drain()
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	for _, ch := range w.chans {
		close(ch)
	}
	w.mu.Unlock()
	w.runners.Wait()
}
