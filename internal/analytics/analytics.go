// Package analytics is the stream-analytics subsystem (DESIGN.md §17): a
// read-side engine that tracks which vertices are worth asking about —
// heavy sources, heavy destinations, and the current epoch's heavy sources
// — so the heavy_hitters, burst and delta_vertex kinds of /v2/query have
// candidates. It computes no weight: every answer is a probe of the
// summary itself (query.Fill, the planner), so answers are the summary's
// one-sided estimates, equal on primary and follower and across restarts.
//
// The engine never owns a write path. It registers as a
// shard.ApplyObserver, so every batch applied to a shard — async group
// commits, WAL replay, follower replication — updates the candidate sets
// from inside the same write-lock section that bumps the shard's mutation
// version. Deletes and retention expiry need no hook: they reach the
// answers through the probes.
//
// Per shard the engine keeps three Space-Saving sets (Metwally et al.) of
// TrackK ids: sources by out-weight, destinations by in-weight, and the
// current epoch's sources by out-weight. A set's counters only choose and
// order its ids; no answer reads them. Because the stream is partitioned
// by source vertex, a source is tracked in one shard only; a destination
// may be tracked in several.
package analytics

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of partitions of the observed summary; must
	// match shard.Summary.NumShards().
	Shards int
	// TrackK bounds each per-shard candidate set. A query ranks at most
	// Shards×TrackK distinct vertices per direction. 0 = DefaultTrackK.
	TrackK int
	// EpochSeconds is the burst epoch length in stream-time units. 0 =
	// DefaultEpochSeconds.
	EpochSeconds int64
	// EpochRing is the number of epochs a burst query looks at: the current
	// one and, as its baseline, the EpochRing−1 before it. 0 =
	// DefaultEpochRing; minimum 2.
	EpochRing int
	// BurstFactor is the score threshold: a vertex is flagged when
	// current-epoch weight ≥ BurstFactor × baseline. 0 = DefaultBurstFactor.
	BurstFactor float64
	// BurstMin is the minimum current-epoch weight to flag — a floor that
	// keeps cold vertices (baseline ≈ 0) from flagging on a single edge.
	// 0 = DefaultBurstMin.
	BurstMin int64
}

// Tuning defaults; see the README flag table.
const (
	DefaultTrackK       = 128
	DefaultEpochSeconds = 60
	DefaultEpochRing    = 8
	DefaultBurstFactor  = 4.0
	DefaultBurstMin     = 16
)

// WithDefaults returns c with every zero field resolved to its default.
func (c Config) WithDefaults() Config {
	if c.TrackK == 0 {
		c.TrackK = DefaultTrackK
	}
	if c.EpochSeconds == 0 {
		c.EpochSeconds = DefaultEpochSeconds
	}
	if c.EpochRing == 0 {
		c.EpochRing = DefaultEpochRing
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = DefaultBurstFactor
	}
	if c.BurstMin == 0 {
		c.BurstMin = DefaultBurstMin
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Shards < 1 {
		return fmt.Errorf("analytics: Shards = %d, need ≥ 1", c.Shards)
	}
	if c.TrackK < 1 {
		return fmt.Errorf("analytics: TrackK = %d, need ≥ 1", c.TrackK)
	}
	if c.EpochSeconds < 1 {
		return fmt.Errorf("analytics: EpochSeconds = %d, need ≥ 1", c.EpochSeconds)
	}
	if c.EpochRing < 2 {
		return fmt.Errorf("analytics: EpochRing = %d, need ≥ 2 (1 current + ≥ 1 baseline)", c.EpochRing)
	}
	if c.BurstFactor < 1 {
		return fmt.Errorf("analytics: BurstFactor = %v, need ≥ 1", c.BurstFactor)
	}
	return nil
}

// tracked is one Space-Saving entry: an id and its counter.
type tracked struct {
	id uint64
	n  int64
}

// spaceSaving is a Space-Saving set of at most k ids: a min-heap by
// counter plus an index map. A tracked id's counter grows by each weight
// it is given; an untracked id replaces the minimum and inherits its
// counter, so any id heavier than a 1/k share of the weight stays tracked.
type spaceSaving struct {
	k    int
	heap []tracked
	pos  map[uint64]int // id → index in heap
}

func newSpaceSaving(k int) spaceSaving {
	return spaceSaving{k: k, heap: make([]tracked, 0, k), pos: make(map[uint64]int, k)}
}

func (t *spaceSaving) add(id uint64, w int64) {
	i, ok := t.pos[id]
	switch {
	case ok:
		t.heap[i].n += w
	case len(t.heap) < t.k:
		i = len(t.heap)
		t.heap = append(t.heap, tracked{id, w})
	default:
		i = 0
		delete(t.pos, t.heap[0].id)
		t.heap[0] = tracked{id, t.heap[0].n + w}
	}
	t.pos[id] = t.fix(i)
}

// fix restores the heap order around index i and returns where its entry
// came to rest, keeping pos in step for every entry it moves.
func (t *spaceSaving) fix(i int) int {
	h := t.heap
	for i > 0 && h[i].n < h[(i-1)/2].n {
		p := (i - 1) / 2
		h[i], h[p] = h[p], h[i]
		t.pos[h[i].id] = i
		i = p
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			return i
		}
		if c+1 < len(h) && h[c+1].n < h[c].n {
			c++
		}
		if h[i].n <= h[c].n {
			return i
		}
		h[i], h[c] = h[c], h[i]
		t.pos[h[i].id] = i
		i = c
	}
}

func (t *spaceSaving) reset() {
	t.heap = t.heap[:0]
	clear(t.pos)
}

// shardState is the engine's per-shard state. Its mutex serializes updates
// against reads; on the write side it is only ever taken while already
// holding the shard's write lock (the observer runs inside the apply's
// lock section), and the engine never calls back into the summary, so the
// nesting cannot deadlock.
type shardState struct {
	mu    sync.Mutex
	out   spaceSaving // sources by out-weight
	in    spaceSaving // destinations by in-weight
	cur   spaceSaving // the current epoch's sources by out-weight
	epoch int64       // the newest epoch applied here; MinInt64 before any
}

// Engine is the stream-analytics engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	shards []*shardState

	edges  metrics.Counter // edges observed through the apply path
	weight metrics.Counter // total weight observed
	served metrics.Counter // candidate sets supplied to queries
}

// New returns an engine for the given configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shardState, cfg.Shards)}
	for i := range e.shards {
		e.shards[i] = &shardState{
			out:   newSpaceSaving(cfg.TrackK),
			in:    newSpaceSaving(cfg.TrackK),
			cur:   newSpaceSaving(cfg.TrackK),
			epoch: math.MinInt64,
		}
	}
	return e, nil
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// epochOf is the epoch holding instant t: floor division, so a negative t
// falls in a negative epoch.
func (e *Engine) epochOf(t int64) int64 {
	ep := t / e.cfg.EpochSeconds
	if t%e.cfg.EpochSeconds < 0 {
		ep--
	}
	return ep
}

// ObserveApply implements shard.ApplyObserver: absorb a batch applied to
// shard i. Runs inside the shard's write-lock section — keep it lean. An
// edge older than the shard's epoch still counts toward it: the summary
// clamps it up to the shard's frontier, which lies in that epoch.
func (e *Engine) ObserveApply(i int, edges []stream.Edge) {
	ss := e.shards[i]
	var w int64
	ss.mu.Lock()
	for _, ed := range edges {
		ss.out.add(ed.S, ed.W)
		ss.in.add(ed.D, ed.W)
		if ep := e.epochOf(ed.T); ep > ss.epoch {
			ss.epoch = ep
			ss.cur.reset()
		}
		ss.cur.add(ed.S, ed.W)
		w += ed.W
	}
	ss.mu.Unlock()
	e.edges.Add(int64(len(edges)))
	e.weight.Add(w)
}

// epoch is the current epoch: the newest any shard has applied
// (MinInt64 before any edge).
func (e *Engine) epoch() int64 {
	cur := int64(math.MinInt64)
	for _, ss := range e.shards {
		ss.mu.Lock()
		cur = max(cur, ss.epoch)
		ss.mu.Unlock()
	}
	return cur
}

// Candidates implements query.Analytics: up to limit tracked ids, heaviest
// counter first (ties by id) — sources for dir "out" or "", destinations
// for dir "in" (counters summed over the shards tracking them), and for
// burst the sources tracked in the current epoch.
func (e *Engine) Candidates(k query.Kind, dir string, limit int) []uint64 {
	e.served.Inc()
	counts := e.tracked(k, dir)
	ids := slices.Collect(maps.Keys(counts))
	slices.SortFunc(ids, func(a, b uint64) int { return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b)) })
	return ids[:min(len(ids), limit)]
}

// tracked is every id Candidates chooses from, with its counter summed
// over the shards tracking it. A shard whose newest epoch is older than
// the current one tracks no current-epoch id.
func (e *Engine) tracked(k query.Kind, dir string) map[uint64]int64 {
	cur := e.epoch()
	counts := make(map[uint64]int64)
	for _, ss := range e.shards {
		ss.mu.Lock()
		set := &ss.out
		switch {
		case k == query.KindBurst:
			set = &ss.cur
		case dir == query.DirIn:
			set = &ss.in
		}
		if k != query.KindBurst || ss.epoch == cur {
			for _, t := range set.heap {
				counts[t.id] += t.n
			}
		}
		ss.mu.Unlock()
	}
	return counts
}

// Burst implements query.Analytics: the current epoch, the EpochRing−1
// epochs before it as the baseline, and the flag rule. Window ends clamp
// to the int64 range. Before any edge the current epoch is epoch 0.
func (e *Engine) Burst() query.Burst {
	cur := e.epoch()
	if cur == math.MinInt64 {
		cur = 0
	}
	from := cur - int64(e.cfg.EpochRing-1)
	if from > cur { // wrapped below the time axis
		from = math.MinInt64
	}
	lo, span := e.start(cur), e.cfg.EpochSeconds-1
	return query.Burst{
		Ts: e.start(from), Te: max(lo, math.MinInt64+1) - 1,
		Ts2: lo, Te2: min(lo, math.MaxInt64-span) + span,
		Factor: e.cfg.BurstFactor, Min: e.cfg.BurstMin,
	}
}

// start is the first instant of epoch ep, clamped to the int64 range.
func (e *Engine) start(ep int64) int64 {
	if ep < math.MinInt64/e.cfg.EpochSeconds {
		return math.MinInt64
	}
	return ep * e.cfg.EpochSeconds
}

// Stats is the /healthz snapshot of the engine.
type Stats struct {
	Shards       int     `json:"shards"`
	TrackK       int     `json:"track_k"`
	EpochSeconds int64   `json:"epoch_seconds"`
	EpochRing    int     `json:"epoch_ring"`
	BurstFactor  float64 `json:"burst_factor"`
	BurstMin     int64   `json:"burst_min"`
	TrackedOut   int     `json:"tracked_out"` // distinct out-candidates across shards
	TrackedIn    int     `json:"tracked_in"`  // distinct in-candidates across shards
	Edges        int64   `json:"edges"`       // edges absorbed through the apply path
	Weight       int64   `json:"weight"`      // total weight absorbed
	Served       int64   `json:"served"`      // candidate sets supplied to queries
}

// Stats gathers a snapshot. It runs no probe.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:       e.cfg.Shards,
		TrackK:       e.cfg.TrackK,
		EpochSeconds: e.cfg.EpochSeconds,
		EpochRing:    e.cfg.EpochRing,
		BurstFactor:  e.cfg.BurstFactor,
		BurstMin:     e.cfg.BurstMin,
		Edges:        e.edges.Load(),
		Weight:       e.weight.Load(),
		Served:       e.served.Load(),
	}
	st.TrackedOut = len(e.tracked(query.KindHeavyHitters, query.DirOut))
	st.TrackedIn = len(e.tracked(query.KindHeavyHitters, query.DirIn))
	return st
}
