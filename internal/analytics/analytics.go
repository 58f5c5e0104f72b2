// Package analytics is the stream-analytics subsystem (DESIGN.md §17): a
// read-side engine that tracks heavy hitters and burst vertices in
// committer-maintained sketches and serves the sketch-backed /v2/query
// kinds (heavy_hitters, burst) in O(k), plus candidate sets for the
// probe-backed delta kinds.
//
// The engine never owns a write path. It registers as a
// shard.ApplyObserver, so every mutation that reaches a shard — sync
// inserts, async group commits, WAL replay, follower replication, deletes,
// retention expiry — updates the sketches from inside the same write-lock
// section that bumps the shard's mutation version. By the time any reader
// observes ShardVersion(i) advanced past a batch, the sketches have
// already absorbed it (the sketch-maintenance invariant).
//
// Per shard and direction the engine keeps a count-min sketch of total
// admitted weight (internal/cms) plus a bounded candidate set — the
// classic CMS + top-set heavy-hitter construction: a vertex enters the
// candidate set when its sketch estimate exceeds the set's minimum, so the
// set always contains every true heavy hitter whose weight clears the
// sketch's ε·N noise floor. Because the stream is partitioned by source
// vertex, a shard's out-direction estimates are globally complete;
// in-direction estimates are per-shard partials summed across shards at
// query time (same-seed sketches, mergeable by counter addition).
//
// Burst detection slices time into fixed epochs (Config.EpochSeconds) and
// keeps a ring of per-epoch sketches: a vertex's burst score is its
// current-epoch out-weight over its mean weight across the previous ring
// epochs, flagged when the score clears Config.BurstFactor and the
// current weight clears Config.BurstMin.
package analytics

import (
	"fmt"
	"sort"
	"sync"

	"higgs/internal/cms"
	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of partitions of the observed summary; must
	// match shard.Summary.NumShards().
	Shards int
	// Seed derives the sketch hash functions. Engines observing different
	// summaries merge correctly only when built with equal seeds; use the
	// summary's core seed.
	Seed uint64
	// TrackK bounds each per-shard, per-direction candidate set (and each
	// epoch slot's). Queries can never return more than Shards×TrackK
	// distinct vertices per direction. 0 = DefaultTrackK.
	TrackK int
	// Rows, Width shape the lifetime-total sketches. 0 = DefaultRows,
	// DefaultWidth.
	Rows  int
	Width uint32
	// EpochSeconds is the burst epoch length in stream-time units. 0 =
	// DefaultEpochSeconds.
	EpochSeconds int64
	// EpochRing is the number of per-epoch ring slots; a vertex's burst
	// baseline is its mean weight over the EpochRing−1 epochs before the
	// current one. 0 = DefaultEpochRing; minimum 2.
	EpochRing int
	// EpochWidth shapes the per-epoch sketches (rows follow Rows). 0 =
	// DefaultEpochWidth.
	EpochWidth uint32
	// BurstFactor is the score threshold: a vertex is flagged when
	// current-epoch weight ≥ BurstFactor × baseline. 0 = DefaultBurstFactor.
	BurstFactor float64
	// BurstMin is the minimum current-epoch weight to flag — a floor that
	// keeps cold vertices (baseline ≈ 0) from flagging on a single edge.
	// 0 = DefaultBurstMin.
	BurstMin int64
}

// Tuning defaults; see the README flag table for how they trade accuracy
// against memory.
const (
	DefaultTrackK       = 128
	DefaultRows         = 4
	DefaultWidth        = 2048
	DefaultEpochSeconds = 60
	DefaultEpochRing    = 8
	DefaultEpochWidth   = 512
	DefaultBurstFactor  = 4.0
	DefaultBurstMin     = 16
)

// WithDefaults returns c with every zero field resolved to its default.
func (c Config) WithDefaults() Config {
	if c.TrackK == 0 {
		c.TrackK = DefaultTrackK
	}
	if c.Rows == 0 {
		c.Rows = DefaultRows
	}
	if c.Width == 0 {
		c.Width = DefaultWidth
	}
	if c.EpochSeconds == 0 {
		c.EpochSeconds = DefaultEpochSeconds
	}
	if c.EpochRing == 0 {
		c.EpochRing = DefaultEpochRing
	}
	if c.EpochWidth == 0 {
		c.EpochWidth = DefaultEpochWidth
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

// topSet is a bounded vertex → weight-estimate map: the candidate half of
// the CMS + top-set heavy-hitter construction. When full, a new vertex
// displaces the current minimum only if its estimate is larger, so the set
// converges on the stream's heaviest vertices. minHint caches a lower
// bound on the set's minimum to skip eviction scans for obviously-light
// vertices; it is repaired on every full scan.
type topSet struct {
	k       int
	m       map[uint64]int64
	minHint int64
}

func newTopSet(k int) *topSet { return &topSet{k: k, m: make(map[uint64]int64, k)} }

// update records vertex v's latest sketch estimate est.
func (t *topSet) update(v uint64, est int64) {
	if _, ok := t.m[v]; ok {
		t.m[v] = est
		return
	}
	if len(t.m) < t.k {
		t.m[v] = est
		if len(t.m) == 1 || est < t.minHint {
			t.minHint = est
		}
		return
	}
	if est <= t.minHint {
		return
	}
	// Full scan: find and evict the true minimum if est beats it.
	var minV uint64
	minE := int64(-1)
	for mv, me := range t.m {
		if minE < 0 || me < minE {
			minV, minE = mv, me
		}
	}
	if est > minE {
		delete(t.m, minV)
		t.m[v] = est
		minE = est
		for _, me := range t.m {
			if me < minE {
				minE = me
			}
		}
	}
	t.minHint = minE
}

// lower lowers v's recorded estimate (deletes shrink weights).
func (t *topSet) lower(v uint64, est int64) {
	if _, ok := t.m[v]; ok {
		t.m[v] = est
		if est < t.minHint {
			t.minHint = est
		}
	}
}

func (t *topSet) reset() {
	clear(t.m)
	t.minHint = 0
}

// epochSlot is one ring slot: the sketch and candidates of a single epoch.
type epochSlot struct {
	epoch int64 // which epoch this slot currently holds; −1 = never used
	sk    *cms.Sketch
	top   *topSet
}

// shardState is the engine's per-shard mirror. Its mutex serializes sketch
// updates against sketch queries; on the write side it is only ever taken
// while already holding the shard's write lock (the observer runs inside
// the apply's lock section), and the engine never calls back into the
// summary, so the nesting cannot deadlock.
type shardState struct {
	mu     sync.Mutex
	out    *cms.Sketch // lifetime out-weight by source vertex (globally complete)
	in     *cms.Sketch // lifetime in-weight by destination (per-shard partial)
	outTop *topSet
	inTop  *topSet
	ring   []epochSlot // per-epoch out-weight, indexed epoch % len
	epoch  int64       // highest epoch observed by this shard
}

// Engine is the stream-analytics engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	shards []*shardState

	edges   metrics.Counter // edges observed through the apply path
	weight  metrics.Counter // total weight observed
	deletes metrics.Counter // deletes observed
	expires metrics.Counter // shard-expire events observed
	served  metrics.Counter // sketch-backed queries answered
	flagged metrics.Counter // burst flags raised across Bursts calls
}

// New returns an engine for the given configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shardState, cfg.Shards)}
	for i := range e.shards {
		out, err := cms.New(cfg.Rows, cfg.Width, cfg.Seed)
		if err != nil {
			return nil, err
		}
		in, err := cms.New(cfg.Rows, cfg.Width, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		ss := &shardState{
			out:    out,
			in:     in,
			outTop: newTopSet(cfg.TrackK),
			inTop:  newTopSet(cfg.TrackK),
			ring:   make([]epochSlot, cfg.EpochRing),
			epoch:  -1,
		}
		for j := range ss.ring {
			sk, err := cms.New(cfg.Rows, cfg.EpochWidth, cfg.Seed+2)
			if err != nil {
				return nil, err
			}
			ss.ring[j] = epochSlot{epoch: -1, sk: sk, top: newTopSet(cfg.TrackK)}
		}
		e.shards[i] = ss
	}
	return e, nil
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ObserveApply implements shard.ApplyObserver: absorb a batch applied to
// shard i. Runs inside the shard's write-lock section — keep it lean.
func (e *Engine) ObserveApply(i int, edges []stream.Edge) {
	ss := e.shards[i]
	ss.mu.Lock()
	for _, ed := range edges {
		ss.out.Add(ed.S, ed.W)
		ss.outTop.update(ed.S, ss.out.Count(ed.S))
		ss.in.Add(ed.D, ed.W)
		ss.inTop.update(ed.D, ss.in.Count(ed.D))

		ep := ed.T / e.cfg.EpochSeconds
		if ep > ss.epoch {
			ss.epoch = ep
		}
		slot := &ss.ring[ep%int64(len(ss.ring))]
		if slot.epoch != ep {
			// The ring wrapped (or first use): this slot held an epoch now
			// outside the baseline window. Recycle it.
			slot.sk.Reset()
			slot.top.reset()
			slot.epoch = ep
		}
		slot.sk.Add(ed.S, ed.W)
		slot.top.update(ed.S, slot.sk.Count(ed.S))
		e.weight.Add(ed.W)
	}
	e.edges.Add(int64(len(edges)))
	ss.mu.Unlock()
}

// ObserveDelete implements shard.ApplyObserver: a delete subtracts the
// edge's weight from the lifetime sketches (CMS supports negative adds),
// keeping heavy-hitter totals aligned with the summary's contents. Epoch
// slots are left alone: a burst that happened still happened.
func (e *Engine) ObserveDelete(i int, ed stream.Edge) {
	ss := e.shards[i]
	ss.mu.Lock()
	ss.out.Add(ed.S, -ed.W)
	ss.outTop.lower(ed.S, ss.out.Count(ed.S))
	ss.in.Add(ed.D, -ed.W)
	ss.inTop.lower(ed.D, ss.in.Count(ed.D))
	e.deletes.Inc()
	ss.mu.Unlock()
}

// ObserveExpire implements shard.ApplyObserver. Retention expiry trims the
// summary's old buckets, but the analytics sketches deliberately keep
// lifetime totals — "heaviest since boot" stays comparable across expiry,
// and per-epoch burst state ages out through the ring on its own — so only
// the counter moves.
func (e *Engine) ObserveExpire(int, int64) { e.expires.Inc() }

// HeavyHitters implements query.Analytics: the top-k vertices by total
// admitted out-weight (dir "out" or "") or in-weight (dir "in"), heaviest
// first, ties by vertex id. Out-direction candidates carry globally
// complete per-shard estimates (source partitioning); in-direction
// candidates are re-estimated by summing every shard's in-sketch count —
// the cross-shard merge the same-seed sketches make exact.
func (e *Engine) HeavyHitters(dir string, k int) []query.Entry {
	e.served.Inc()
	var entries []query.Entry
	if dir == query.DirIn {
		cands := make(map[uint64]struct{})
		for _, ss := range e.shards {
			ss.mu.Lock()
			for v := range ss.inTop.m {
				cands[v] = struct{}{}
			}
			ss.mu.Unlock()
		}
		sums := make(map[uint64]int64, len(cands))
		for _, ss := range e.shards {
			ss.mu.Lock()
			for v := range cands {
				sums[v] += ss.in.Count(v)
			}
			ss.mu.Unlock()
		}
		entries = make([]query.Entry, 0, len(sums))
		for v, w := range sums {
			entries = append(entries, query.Entry{S: v, Cur: w})
		}
	} else {
		for _, ss := range e.shards {
			ss.mu.Lock()
			for v := range ss.outTop.m {
				entries = append(entries, query.Entry{S: v, Cur: ss.out.Count(v)})
			}
			ss.mu.Unlock()
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Cur != entries[b].Cur {
			return entries[a].Cur > entries[b].Cur
		}
		return entries[a].S < entries[b].S
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// Bursts implements query.Analytics: the top-k vertices by rate-of-change
// score, highest first (ties by current weight, then vertex id). A
// vertex's score is its current-epoch out-weight over its mean per-epoch
// weight across the ring's earlier epochs (floored at 1); Burst is set
// when score ≥ BurstFactor and the current weight ≥ BurstMin. The global
// current epoch is the max across shards, so shards that have seen no
// recent edges simply contribute nothing.
func (e *Engine) Bursts(k int) []query.Entry {
	e.served.Inc()
	entries := e.burstEntries(k)
	for _, b := range entries {
		if b.Burst {
			e.flagged.Inc()
		}
	}
	return entries
}

// burstEntries computes the ranked burst scores without touching the
// served/flagged counters, so monitoring traffic (Stats) does not inflate
// query-path figures.
func (e *Engine) burstEntries(k int) []query.Entry {
	var cur int64 = -1
	for _, ss := range e.shards {
		ss.mu.Lock()
		if ss.epoch > cur {
			cur = ss.epoch
		}
		ss.mu.Unlock()
	}
	if cur < 0 {
		return nil
	}
	var entries []query.Entry
	for _, ss := range e.shards {
		ss.mu.Lock()
		slot := &ss.ring[cur%int64(len(ss.ring))]
		if slot.epoch != cur {
			ss.mu.Unlock()
			continue // this shard saw nothing in the current epoch
		}
		for v := range slot.top.m {
			curW := slot.sk.Count(v)
			var prev int64
			for j := range ss.ring {
				sl := &ss.ring[j]
				if sl.epoch >= 0 && sl.epoch < cur && sl.epoch > cur-int64(len(ss.ring)) {
					prev += sl.sk.Count(v)
				}
			}
			// Baseline over the full ring span, counting silent epochs as
			// zero: a vertex active only in the current epoch has baseline
			// ≈ 0, not "its own average".
			base := prev / int64(len(ss.ring)-1)
			den := base
			if den < 1 {
				den = 1
			}
			score := float64(curW) / float64(den)
			burst := score >= e.cfg.BurstFactor && curW >= e.cfg.BurstMin
			entries = append(entries, query.Entry{S: v, Cur: curW, Prev: base, Score: score, Burst: burst})
		}
		ss.mu.Unlock()
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Score != entries[b].Score {
			return entries[a].Score > entries[b].Score
		}
		if entries[a].Cur != entries[b].Cur {
			return entries[a].Cur > entries[b].Cur
		}
		return entries[a].S < entries[b].S
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// CandidateVertices returns up to max tracked vertices for the given
// direction, heaviest first — the server's default candidate set for
// delta_vertex queries that omit their own.
func (e *Engine) CandidateVertices(dir string, max int) []uint64 {
	hh := e.HeavyHitters(dir, max)
	vs := make([]uint64, len(hh))
	for i, h := range hh {
		vs[i] = h.S
	}
	return vs
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
	Deletes      int64   `json:"deletes"`
	Expires      int64   `json:"expires"`
	Served       int64   `json:"served"`         // sketch-backed queries answered
	BurstsRaised int64   `json:"bursts_raised"`  // burst flags raised, cumulative
	CurrentBurst int     `json:"current_bursts"` // vertices flagged right now
	SpaceBytes   int64   `json:"space_bytes"`
}

// Stats gathers a snapshot. The current-burst figure runs a full Bursts
// pass, so Stats is meant for monitoring-rate callers.
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
		Deletes:      e.deletes.Load(),
		Expires:      e.expires.Load(),
	}
	out := make(map[uint64]struct{})
	in := make(map[uint64]struct{})
	for _, ss := range e.shards {
		ss.mu.Lock()
		for v := range ss.outTop.m {
			out[v] = struct{}{}
		}
		for v := range ss.inTop.m {
			in[v] = struct{}{}
		}
		st.SpaceBytes += ss.out.SpaceBytes() + ss.in.SpaceBytes()
		for j := range ss.ring {
			st.SpaceBytes += ss.ring[j].sk.SpaceBytes()
		}
		ss.mu.Unlock()
	}
	st.TrackedOut = len(out)
	st.TrackedIn = len(in)
	for _, b := range e.burstEntries(query.MaxTopK) {
		if b.Burst {
			st.CurrentBurst++
		}
	}
	st.Served = e.served.Load()
	st.BurstsRaised = e.flagged.Load()
	return st
}
