package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"higgs/internal/core"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// The traced replay. higgsd records no spans of its own yet, so the layer
// times are measured here, in the generator's process: the same stack is
// built from the layers' public constructors, one copy per seam, and the
// workload's rounds are replayed at each seam with a span around every
// call into the layer below.
//
//	server   srv.Handler().ServeHTTP(in-memory writer, decoded request)
//	mid      ingest.Pipeline Submit/Flush/Expire and query.DoBatchWith on
//	         decoded inputs; a query.Prober wrapper above the read cache
//	         and an rcache.Backend wrapper below it give nested spans
//	wal      wal.Log Append + WaitSynced alone, on the same batches
//	shard    shard.Summary InsertShardAt / ProbeShard / ExpireAt on inputs
//	         already partitioned by shard
//	core     core.Summary Insert / EdgeWeight… / Expire, one per shard
//
// End-to-end metrics never come from here.

// span is one timed call. Parent is the ID of the span that caused it, -1
// at a seam's top; spans of one request share Round and Req. N counts the
// work items the call covered (edges, queries, probes, leaves dropped).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the planner probes shards from several goroutines
	spans []span
	on    bool // off: begin records nothing and returns -1
	round int
	req   int
}

func (t *tracer) begin(name string, parent, n int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Round: t.round, Req: t.req, N: n,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id and sets its work-item count if n is not negative.
func (t *tracer) end(id, n int) {
	if id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	if n >= 0 {
		t.spans[id].N = n
	}
}

// tracedProber sits between the planner and the read cache, tracedBackend
// between the cache and the summary. The cache calls its backend on the
// goroutine the planner called the cache on, one per shard, so the shard
// index links a backend span to the cache span that caused it.
type tracedProber struct {
	query.Prober
	t      *tracer
	parent int         // the enclosing query span
	cur    [shards]int // the open rcache span of each shard
}

func (p *tracedProber) ProbeShard(i int, probes []query.Probe, out []int64) {
	p.cur[i] = p.t.begin("rcache", p.parent, len(probes))
	p.Prober.ProbeShard(i, probes, out)
	p.t.end(p.cur[i], -1)
}

type tracedBackend struct {
	rcache.Backend
	above *tracedProber
}

func (b *tracedBackend) ProbeShard(i int, probes []query.Probe, out []int64) {
	id := b.above.t.begin("rcache.backend", b.above.cur[i], len(probes))
	b.Backend.ProbeShard(i, probes, out)
	b.above.t.end(id, -1)
}

// memWriter is the in-memory http.ResponseWriter of the server seam.
type memWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// newSummary builds an empty summary with the daemon's shard count.
func newSummary() (*shard.Summary, error) {
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	return shard.New(cfg)
}

// replayer holds one copy of the layers per seam, each as deep as its
// seam needs, and replays rounds against them.
type replayer struct {
	t      *tracer
	opKind opKind

	srv     *server.Server // seam "server": the full stack
	handler http.Handler
	srvLog  *wal.Log

	midSum  *shard.Summary // seam "mid": pipeline and planner called directly
	midLog  *wal.Log
	midPipe *ingest.Pipeline
	prober  *tracedProber

	walOnly *wal.Log // seam "wal"
	walDir  string

	sh    *shard.Summary  // seam "shard"
	cores []*core.Summary // seam "core"

	// Per traced round:
	ops     []float64 // the workload's ops
	mallocs []float64 // heap allocations during the server seam
	syncs   []float64 // advances of the wal seam's durable frontier
	midWall []float64 // wall time of the mid seam
	bare    float64   // mid-seam wall time of the last round replayed without spans
}

func newReplayer(z sizes, dir string, opKind opKind) (*replayer, error) {
	r := &replayer{t: &tracer{t0: time.Now()}, opKind: opKind, walDir: filepath.Join(dir, "wal-only")}
	srvSum, err := newSummary()
	if err != nil {
		return nil, err
	}
	if r.srvLog, err = wal.Open(wal.Config{Dir: filepath.Join(dir, "wal-server")}); err != nil {
		return nil, err
	}
	icfg := ingest.DefaultConfig()
	icfg.WAL = r.srvLog
	if r.srv, err = server.NewWithIngest(srvSum, icfg); err != nil {
		return nil, err
	}
	if err := r.srv.SetReadCache(z.CacheBytes); err != nil {
		return nil, err
	}
	r.handler = r.srv.Handler()

	if r.midSum, err = newSummary(); err != nil {
		return nil, err
	}
	if r.midLog, err = wal.Open(wal.Config{Dir: filepath.Join(dir, "wal-mid")}); err != nil {
		return nil, err
	}
	icfg.WAL = r.midLog
	if r.midPipe, err = ingest.New(r.midSum, icfg); err != nil {
		return nil, err
	}
	r.prober = &tracedProber{t: r.t}
	cache, err := rcache.New(&tracedBackend{Backend: r.midSum, above: r.prober}, rcache.Config{MaxBytes: z.CacheBytes})
	if err != nil {
		return nil, err
	}
	r.prober.Prober = cache

	if r.walOnly, err = wal.Open(wal.Config{Dir: r.walDir}); err != nil {
		return nil, err
	}
	if r.sh, err = newSummary(); err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		c, err := core.New(r.sh.Config().Core)
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, c)
	}
	return r, nil
}

func (r *replayer) close() {
	r.srv.Close()
	_ = r.srvLog.Close()
	r.midPipe.Close()
	_ = r.midLog.Close()
	if r.walOnly != nil {
		_ = r.walOnly.Close()
	}
}

// shardInput is one request partitioned the way the planner and the
// pipeline partition it, so that the shard and core seams time only the
// layer and not the grouping.
type shardInput struct {
	edges  [shards][]stream.Edge
	probes [shards][]query.Probe
	out    [shards][]int64
}

func (r *replayer) partition(o op) *shardInput {
	in := new(shardInput)
	for _, e := range o.edges {
		i := r.sh.ShardFor(e.S)
		in.edges[i] = append(in.edges[i], e)
	}
	for _, q := range o.queries {
		for _, k := range probeKeys(q) {
			i := k.shard
			if k.op != query.OpVertexIn {
				i = r.sh.ShardFor(k.s)
			}
			in.probes[i] = append(in.probes[i], query.Probe{Op: k.op, S: k.s, D: k.d, Ts: k.ts, Te: k.te})
		}
	}
	for i := range in.out {
		in.out[i] = make([]int64, len(in.probes[i]))
	}
	return in
}

// round replays one round at every seam. With record off nothing is
// traced: the preload, the warm-up round, and the one round whose mid-seam
// time is the base of trace.overhead_ratio.
func (r *replayer) round(n int, ops []op, record bool) error {
	t := r.t
	t.round, t.on = n, record

	// Seam "server". Parsing the request head is net/http's work on the
	// connection, so it happens before the span opens.
	reqs := make([]*http.Request, len(ops))
	for i, o := range ops {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(o.req)))
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := &memWriter{h: http.Header{}}
	for i, o := range ops {
		t.req = i
		w.status = 0
		w.buf.Reset()
		id := t.begin("server", -1, len(o.edges)+len(o.queries))
		r.handler.ServeHTTP(w, reqs[i])
		t.end(id, -1)
		if w.status/100 != 2 {
			return fmt.Errorf("server seam: request %d: status %d: %s", i, w.status, w.buf.Bytes())
		}
	}
	runtime.ReadMemStats(&ms1)

	// Seam "mid".
	midStart := time.Now()
	for i, o := range ops {
		t.req = i
		var err error
		switch o.kind {
		case opIngest:
			id := t.begin("ingest.submit", -1, len(o.edges))
			_, err = r.midPipe.Submit(o.edges)
			t.end(id, -1)
		case opFlush:
			id := t.begin("ingest.flush", -1, 0)
			r.midPipe.Flush()
			t.end(id, -1)
		case opExpire:
			id := t.begin("ingest.expire", -1, 0)
			_, err = r.midPipe.Expire(o.cutoff)
			t.end(id, -1)
		case opQuery:
			r.prober.parent = t.begin("query", -1, len(o.queries))
			for _, res := range query.DoBatchWith(r.prober, nil, o.queries) {
				if res.Err != nil {
					err = res.Err
				}
			}
			t.end(r.prober.parent, -1)
		}
		if err != nil {
			return fmt.Errorf("mid seam: request %d: %w", i, err)
		}
	}
	midWall := float64(time.Since(midStart))

	// Seam "wal".
	syncs, frontier := 0, r.walOnly.SyncedSeq()
	for i, o := range ops {
		if o.kind != opIngest {
			continue
		}
		t.req = i
		id := t.begin("wal", -1, len(o.edges))
		last, err := r.walOnly.Append(o.edges, nil)
		if err == nil {
			err = r.walOnly.WaitSynced(last)
		}
		t.end(id, -1)
		if err != nil {
			return fmt.Errorf("wal seam: request %d: %w", i, err)
		}
		if f := r.walOnly.SyncedSeq(); f != frontier {
			syncs, frontier = syncs+1, f
		}
	}

	// Seams "shard" and "core", on inputs partitioned beforehand.
	inputs := make([]*shardInput, len(ops))
	for i, o := range ops {
		inputs[i] = r.partition(o)
	}
	for i, o := range ops {
		t.req = i
		in := inputs[i]
		switch o.kind {
		case opIngest:
			id := t.begin("shard.insert", -1, len(o.edges))
			for s, edges := range in.edges {
				if len(edges) > 0 {
					r.sh.InsertShardAt(s, edges, 0)
				}
			}
			t.end(id, -1)
		case opExpire:
			id := t.begin("shard.expire", -1, 0)
			dropped := r.sh.ExpireAt(o.cutoff, 0)
			t.end(id, int(dropped))
		case opQuery:
			id := t.begin("shard.probe", -1, probesPerBatch)
			for s, probes := range in.probes {
				if len(probes) > 0 {
					r.sh.ProbeShard(s, probes, in.out[s])
				}
			}
			t.end(id, -1)
		}
	}
	for i, o := range ops {
		t.req = i
		in := inputs[i]
		switch o.kind {
		case opIngest:
			id := t.begin("core.insert", -1, len(o.edges))
			for s, edges := range in.edges {
				for _, e := range edges {
					r.cores[s].Insert(e)
				}
			}
			t.end(id, -1)
		case opExpire:
			dropped := 0
			id := t.begin("core.expire", -1, 0)
			for _, c := range r.cores {
				dropped += c.Expire(o.cutoff)
			}
			t.end(id, dropped)
		case opQuery:
			id := t.begin("core.probe", -1, probesPerBatch)
			for s, probes := range in.probes {
				c := r.cores[s]
				for j, p := range probes {
					switch p.Op {
					case query.OpEdge:
						in.out[s][j] = c.EdgeWeight(p.S, p.D, p.Ts, p.Te)
					case query.OpVertexOut:
						in.out[s][j] = c.VertexOut(p.S, p.Ts, p.Te)
					case query.OpVertexIn:
						in.out[s][j] = c.VertexIn(p.S, p.Ts, p.Te)
					}
				}
			}
			t.end(id, -1)
		}
	}

	if !record {
		r.bare = midWall
		return nil
	}
	count := 0
	for _, o := range ops {
		if o.kind == r.opKind {
			count += len(o.edges) + len(o.queries)
		}
	}
	r.ops = append(r.ops, float64(count))
	r.mallocs = append(r.mallocs, float64(ms1.Mallocs-ms0.Mallocs))
	r.syncs = append(r.syncs, float64(syncs))
	r.midWall = append(r.midWall, midWall)
	return nil
}

// replayRecovery closes the wal-only log and times what a boot does with
// it: open, replay into an empty summary.
func (r *replayer) replayRecovery() (edgesPerSecond float64, err error) {
	if err := r.walOnly.Close(); err != nil {
		return 0, err
	}
	r.walOnly = nil
	fresh, err := newSummary()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	log, err := wal.Open(wal.Config{Dir: r.walDir})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	n, err := ingest.Recover(fresh, log)
	if err != nil {
		return 0, err
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// tracedReplay builds the stacks on the seed state, replays the warm-up
// round untraced, z.TraceRounds rounds traced and one more untraced, and
// turns the spans into the traced per-layer metrics, written into m. A
// metric is computed per traced round and reported as the quiet estimate
// over them, like the end-to-end ones.
func tracedReplay(scratch string, z sizes, p plan, base stream.Stream, m map[string]float64) ([]span, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newReplayer(z, dir, p.opKind)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for c := 0; c < z.WindowCycles; c++ {
		if err := r.round(0, cycleOps(base, z, c), false); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for n := 0; n <= z.TraceRounds+1; n++ {
		if err := r.round(n, p.round(n), n >= 1 && n <= z.TraceRounds); err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
	}
	replayEPS, err := r.replayRecovery()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}

	a := aggregate(r.t.spans)
	// est is the quiet estimate over the traced rounds of num/den, where
	// each is a sum of per-round terms.
	est := func(num, den []term) float64 {
		v := make([]float64, z.TraceRounds)
		for i := range v {
			v[i] = div(sum(num, i+1), sum(den, i+1))
		}
		q, _ := quiet(v, len(v))
		return q
	}
	perRound := func(v []float64) term { return func(n int) float64 { return v[n-1] } }
	ops := []term{perRound(r.ops)}
	mid := []term{a.ns("query"), a.ns("ingest.submit"), a.ns("ingest.flush"), a.ns("ingest.expire")}
	batches := []term{a.calls("query")}

	m["server.us_per_op"] = est([]term{a.ns("server")}, ops) / 1e3
	m["server.self_us_per_op"] = m["server.us_per_op"] - est(mid, ops)/1e3
	m["server.allocs_per_op"] = est([]term{perRound(r.mallocs)}, ops)
	m["transport.us_per_op"] = div(1e6, m["ops_per_s"]) - m["server.us_per_op"]
	m["query.us_per_op"] = est([]term{a.ns("query")}, []term{a.items("query")}) / 1e3
	m["query.self_us_per_op"] = est([]term{a.selfNs("query")}, []term{a.items("query")}) / 1e3
	m["query.probes_per_op"] = est([]term{a.items("rcache")}, []term{a.items("query")})
	m["query.shard_groups_per_batch"] = est([]term{a.calls("rcache")}, batches)
	m["rcache.us_per_probe"] = est([]term{a.ns("rcache")}, []term{a.items("rcache")}) / 1e3
	m["rcache.self_us_per_probe"] = est([]term{a.selfNs("rcache")}, []term{a.items("rcache")}) / 1e3
	m["rcache.backend_calls_per_batch"] = est([]term{a.calls("rcache.backend")}, batches)
	m["shard.probe_us_per_probe"] = est([]term{a.ns("shard.probe")}, []term{a.items("shard.probe")}) / 1e3
	m["shard.read_locks_per_batch"] = m["rcache.backend_calls_per_batch"]
	m["shard.insert_us_per_edge"] = est([]term{a.ns("shard.insert")}, []term{a.items("shard.insert")}) / 1e3
	m["core.probe_us_per_probe"] = est([]term{a.ns("core.probe")}, []term{a.items("core.probe")}) / 1e3
	m["core.insert_us_per_edge"] = est([]term{a.ns("core.insert")}, []term{a.items("core.insert")}) / 1e3
	m["core.expire_us_per_kleaf"] = est([]term{a.ns("core.expire")}, []term{a.items("core.expire")})
	m["ingest.us_per_edge"] = est(mid[1:], []term{a.items("ingest.submit")}) / 1e3
	m["wal.us_per_edge"] = est([]term{a.ns("wal")}, []term{a.items("wal")}) / 1e3
	m["ingest.self_us_per_edge"] = 0
	if m["ingest.us_per_edge"] > 0 {
		m["ingest.self_us_per_edge"] = m["ingest.us_per_edge"] - m["wal.us_per_edge"] - m["shard.insert_us_per_edge"]
	}
	m["ingest.flush_ms"] = est([]term{a.ns("ingest.flush")}, []term{a.calls("ingest.flush")}) / 1e6
	m["wal.fsyncs_per_kedge"] = 1e3 * est([]term{perRound(r.syncs)}, []term{a.items("wal")})
	m["wal.replay_eps"] = replayEPS
	// One untraced round is all there is to compare with, so the traced
	// side is the median round, not the quiet one: an indicator, not a
	// measurement.
	m["trace.overhead_ratio"] = div(median(r.midWall), r.bare)
	return r.t.spans, nil
}

// term is a per-round quantity; sum adds terms up for one round.
type term func(round int) float64

func sum(terms []term, round int) float64 {
	var s float64
	for _, t := range terms {
		s += t(round)
	}
	return s
}

// spanSums are sums over the spans by name and round: total duration,
// self time, work items and number of calls.
type spanSums map[sumKey]*[4]float64

type sumKey struct {
	name  string
	round int
}

func (a spanSums) term(name string, field int) term {
	return func(round int) float64 {
		if v := a[sumKey{name, round}]; v != nil {
			return v[field]
		}
		return 0
	}
}

func (a spanSums) ns(name string) term     { return a.term(name, 0) }
func (a spanSums) selfNs(name string) term { return a.term(name, 1) }
func (a spanSums) items(name string) term  { return a.term(name, 2) }
func (a spanSums) calls(name string) term  { return a.term(name, 3) }

// aggregate sums the spans by name and round. A span's self time is its
// duration minus the part of it its child spans cover; children of one
// span may overlap — the planner probes shards concurrently — so the
// covered part is the union of their intervals.
func aggregate(spans []span) spanSums {
	a := spanSums{}
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered int64
		hi := s.Start
		for _, k := range kids {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		v := a[sumKey{s.Name, s.Round}]
		if v == nil {
			v = new([4]float64)
			a[sumKey{s.Name, s.Round}] = v
		}
		dur := float64(s.End - s.Start)
		v[0] += dur
		v[1] += dur - float64(covered)
		v[2] += float64(s.N)
		v[3]++
	}
	return a
}
