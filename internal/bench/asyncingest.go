package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/metrics"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// asyncIngestGate measures the group-commit admission pipeline
// (internal/ingest, DESIGN.md §9) against synchronous per-edge ingest, and
// enforces the pipeline's correctness contract.
//
// Throughput rows replay the stream as batch-size-1 submissions from
// several concurrent producers sharing shards — the worst case the
// pipeline exists for, where synchronous ingest pays one contended shard
// write-lock acquisition per edge while group commit amortizes it to ~one
// per shard per drain. The async figure includes the terminal Flush, so it
// counts time to visibility, not just admission.
//
// The post-flush column is the equivalence check (an error, not a warning,
// when it fails): a deterministic per-shard-ordered stream is ingested
// once synchronously and once through the async pipeline with Flush+Close,
// and the two finalized snapshots must be byte-for-byte equal — so every
// query answer after a flush is exactly what synchronous ingest of the
// same stream would have produced.
var asyncIngestGate = gate{
	id:      "asyncingest",
	title:   "Extra: async group-commit ingest vs sync (internal/ingest)",
	header:  "Extra: async group-commit ingest (internal/ingest)",
	columns: []string{"sync b=1", "group-commit", "speedup", "post-flush"},
	shards:  shardCounts,
	row: func(c *gateCase) ([]string, error) {
		syncEPS, err := contendedIngestEPS(c, false)
		if err != nil {
			return nil, err
		}
		asyncEPS, err := contendedIngestEPS(c, true)
		if err != nil {
			return nil, err
		}
		if err := asyncEquivalence(c); err != nil {
			return nil, err
		}
		c.record("sync_eps", syncEPS)
		c.record("async_eps", asyncEPS)
		return []string{metrics.FormatEPS(syncEPS), metrics.FormatEPS(asyncEPS),
			fmt.Sprintf("%.2f×", asyncEPS/syncEPS), "snapshot byte-equal"}, nil
	},
}

// submitRetry submits one batch, yielding and retrying while the queue is
// full — any other error (a closed pipeline, a future failure mode) is
// returned rather than spun on, so a broken run fails instead of hanging.
func submitRetry(p *ingest.Pipeline, batch []stream.Edge) error {
	for {
		_, err := p.Submit(batch)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ingest.ErrQueueFull) {
			return err
		}
		// The committer is behind; yield so it can drain.
		runtime.Gosched()
	}
}

// produce runs body once per worker, concurrently, and returns an error
// if any of them hit one.
func produce(workers int, body func(w int) error) error {
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(w); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// ingestProducers is the concurrent-poster count for a shard count: enough
// to contend (more producers than shards at low counts), capped by the
// machine's parallelism.
func ingestProducers(n int) int {
	p := 2 * n
	if p < 2 {
		p = 2
	}
	if max := runtime.GOMAXPROCS(0); p > max && max >= 2 {
		p = max
	}
	if p > 8 {
		p = 8
	}
	return p
}

// contendedIngestEPS replays the dataset as batch-size-1 submissions from
// concurrent producers pulling off a shared cursor (so producers collide
// on shards, as HTTP clients do). With async=false each edge goes through
// a synchronous one-edge InsertBatch — a direct shard write, the baseline
// group commit is measured against (no daemon endpoint runs it: /v1/insert
// is Submit + Flush); with async=true each goes through an
// async pipeline, full queues are retried, and the measured time includes
// the final Flush (time to visibility, not just admission).
func contendedIngestEPS(c *gateCase, async bool) (float64, error) {
	ds := c.ds
	s, err := shard.New(c.shardConfig())
	if err != nil {
		return 0, err
	}
	var p *ingest.Pipeline
	if async {
		// A short accumulation window builds large groups under sustained
		// load (a full queue cuts it short), so committers drain thousands
		// of edges per shard-lock acquisition instead of waking per edge.
		p, err = ingest.New(s, ingest.Config{CommitInterval: 200 * time.Microsecond})
		if err != nil {
			return 0, err
		}
		// Close is idempotent; the deferred call covers error returns so
		// committers never outlive the summary the deferred s.Close stops.
		defer p.Close()
	}

	var next atomic.Int64
	start := time.Now()
	err = produce(ingestProducers(c.n), func(int) error {
		for {
			i := next.Add(1) - 1
			if i >= int64(len(ds.Stream)) {
				return nil
			}
			if !async {
				s.InsertBatch(ds.Stream[i : i+1])
			} else if err := submitRetry(p, ds.Stream[i:i+1]); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if async {
		p.Flush()
	}
	eps := metrics.Throughput(int64(len(ds.Stream)), time.Since(start))
	if async {
		p.Close()
	}
	if got := s.Items(); got != int64(len(ds.Stream)) {
		return 0, fmt.Errorf("%d items after ingest, want %d", got, len(ds.Stream))
	}
	return eps, nil
}

// asyncEquivalence ingests the same per-shard-ordered stream once
// synchronously and once through the async pipeline, and requires the
// finalized snapshots to match byte for byte. Producers are pinned one per
// shard (the summary's own partitioning), so both runs present each shard
// an identical edge sequence and any divergence is the pipeline's fault.
func asyncEquivalence(c *gateCase) error {
	ds, n := c.ds, c.n
	run := func(async bool) ([]byte, error) {
		s, err := shard.New(c.shardConfig())
		if err != nil {
			return nil, err
		}
		var p *ingest.Pipeline
		if async {
			p, err = ingest.New(s, ingest.Config{QueueDepth: 512, CommitInterval: 100 * time.Microsecond})
			if err != nil {
				return nil, err
			}
			defer p.Close() // idempotent; covers error returns
		}
		parts := make([][]stream.Edge, n)
		for _, e := range ds.Stream {
			i := s.ShardFor(e.S)
			parts[i] = append(parts[i], e)
		}
		err = produce(n, func(w int) error {
			for i := range parts[w] {
				if !async {
					s.Insert(parts[w][i])
				} else if err := submitRetry(p, parts[w][i:i+1]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if async {
			p.Flush()
			p.Close()
		}
		return summaryBytes(s, true)
	}

	syncSnap, err := run(false)
	if err != nil {
		return fmt.Errorf("sync reference: %w", err)
	}
	asyncSnap, err := run(true)
	if err != nil {
		return fmt.Errorf("async run: %w", err)
	}
	if !bytes.Equal(syncSnap, asyncSnap) {
		return fmt.Errorf("post-flush snapshot diverges from synchronous ingest (%d vs %d bytes)",
			len(asyncSnap), len(syncSnap))
	}
	return nil
}
