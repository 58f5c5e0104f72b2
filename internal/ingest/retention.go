package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RetentionConfig parameterizes a Retainer: a sliding retention window and
// the cadence the background loop enforces it at.
type RetentionConfig struct {
	// Window is the sliding retention horizon: on every tick, subtrees
	// whose entire time range lies before now−Window are dropped. Edge
	// timestamps are interpreted as Unix seconds, matching stream.Edge.T.
	Window time.Duration
	// Interval is the loop cadence. 0 defaults to Window/10, clamped to at
	// least one second — frequent enough that the live data stays close to
	// the window, rare enough that expiry cost stays negligible.
	Interval time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// OnError, when non-nil, observes background expire failures. The loop
	// keeps running: a transient WAL failure degrades to a longer window,
	// not a dead retainer.
	OnError func(error)
}

// withDefaults resolves zero fields to their defaults.
func (c RetentionConfig) withDefaults() RetentionConfig {
	if c.Interval <= 0 {
		c.Interval = c.Window / 10
		if c.Interval < time.Second {
			c.Interval = time.Second
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate reports the first invalid field.
func (c RetentionConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("ingest: retention Window = %v, need > 0", c.Window)
	}
	if c.Interval < 0 {
		return fmt.Errorf("ingest: retention Interval = %v, need ≥ 0", c.Interval)
	}
	return nil
}

// Retainer runs sliding-window retention over a pipeline: every Interval
// it expires everything older than now−Window through Pipeline.Expire, so
// the expire is sequenced against in-flight batches and — on a WAL-backed
// pipeline — logged and crash-safe (DESIGN.md §13). higgsd wires
// -retention-window and -retention-interval here and surfaces the
// counters in /healthz.
type Retainer struct {
	source func() *Pipeline
	cfg    RetentionConfig

	runs       atomic.Int64
	dropped    atomic.Int64
	lastCutoff atomic.Int64
	lastUnix   atomic.Int64

	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once
}

// NewRetainer returns a retainer enforcing cfg, once Start is called,
// over whatever pipeline source returns — resolved on every tick, so a
// caller whose serving pipeline can be swapped out underneath the loop
// (the HTTP server's snapshot upload) hands in its accessor and retention
// follows the live pipeline instead of dying with the old one. The
// retainer does not own the pipeline; Close the retainer before closing
// the pipeline.
func NewRetainer(source func() *Pipeline, cfg RetentionConfig) (*Retainer, error) {
	if source == nil {
		return nil, fmt.Errorf("ingest: retention pipeline source must be non-nil")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Retainer{
		source: source,
		cfg:    cfg.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the background loop; it is a no-op when already started.
func (r *Retainer) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	go r.run()
}

func (r *Retainer) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := r.Tick(); err != nil && r.cfg.OnError != nil {
				// ErrClosed included: either the process is shutting down
				// (Close stops us momentarily — at worst one log line) or
				// the caller closed the pipeline without closing the
				// retainer, which deserves the noise. The loop keeps
				// running either way, so a pipeline swapped in later (the
				// source is re-resolved every tick) resumes retention.
				r.cfg.OnError(err)
			}
		case <-r.stop:
			return
		}
	}
}

// Tick enforces the window once, now: it expires everything older than
// now−Window through the current pipeline and records the run in the
// status counters. The background loop calls it every Interval; it is
// also safe to call directly.
func (r *Retainer) Tick() (dropped int64, err error) {
	cutoff := r.cfg.Now().Add(-r.cfg.Window).Unix()
	dropped, err = r.source().Expire(cutoff)
	if err != nil && dropped == 0 {
		// Nothing applied (ErrClosed, or the WAL failed before delivery):
		// not a run.
		return 0, err
	}
	// Count the tick even when err != nil with dropped > 0: a WAL
	// write/sync failure after delivery means the expire DID apply to the
	// serving summary (it is just not crash-durable), and /healthz must
	// not under-report what queries already reflect.
	r.runs.Add(1)
	r.dropped.Add(dropped)
	r.lastCutoff.Store(cutoff)
	r.lastUnix.Store(r.cfg.Now().Unix())
	return dropped, err
}

// Close stops the background loop and waits for an in-flight tick to
// finish. Close is idempotent.
func (r *Retainer) Close() {
	r.once.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
}

// RetentionStatus is the sliding-window retention state /healthz reports
// in its "retention" field (DESIGN.md §13). All counters cover the
// background loop; expires issued directly over POST /v1/expire are not
// included. The zero value is a server with no retention loop.
type RetentionStatus struct {
	// Enabled reports whether a background retention loop is running.
	Enabled bool `json:"enabled"`
	// WindowSeconds is the sliding retention horizon.
	WindowSeconds int64 `json:"window_seconds,omitempty"`
	// IntervalSeconds is the resolved loop cadence.
	IntervalSeconds int64 `json:"interval_seconds,omitempty"`
	// Runs is the number of completed retention ticks.
	Runs int64 `json:"runs,omitempty"`
	// Dropped is the total number of leaves reclaimed by the loop.
	Dropped int64 `json:"dropped,omitempty"`
	// LastCutoff is the latest tick's cutoff timestamp (Unix seconds).
	LastCutoff int64 `json:"last_cutoff,omitempty"`
	// LastUnix is when the latest tick completed (Unix seconds).
	LastUnix int64 `json:"last_unix,omitempty"`
}

// Status reports the loop's configuration and counters.
func (r *Retainer) Status() RetentionStatus {
	return RetentionStatus{
		Enabled:         true,
		WindowSeconds:   int64(r.cfg.Window / time.Second),
		IntervalSeconds: int64(r.cfg.Interval / time.Second),
		Runs:            r.runs.Load(),
		Dropped:         r.dropped.Load(),
		LastCutoff:      r.lastCutoff.Load(),
		LastUnix:        r.lastUnix.Load(),
	}
}
