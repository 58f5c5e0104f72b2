package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"higgs/internal/exact"
	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// plan is one workload: which requests make up each round, and what
// counts as its operation.
type plan struct {
	name string
	// round returns the requests of round r; round 0 is the untimed
	// warm-up. Read-only workloads return the same requests every time;
	// write workloads return the same requests shifted in time.
	round func(r int) []op
	// opKind is the request kind whose items are the workload's ops and
	// whose latency p50_ms reports: an ingest-window op is an edge, every
	// other workload's op is a query.
	opKind opKind
	// cyclesPerRound is how many cycles a round ingests (0: read-only).
	cyclesPerRound int
}

// env is the machine and build a result was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Pinned     bool   `json:"pinned"`
	WALOnTmpfs bool   `json:"wal_on_tmpfs"`
	DaemonArgs string `json:"daemon_args"`
	DaemonEnv  string `json:"daemon_env"`
}

// roundRecord is everything measured in one timed round; the raw values
// behind every reported number are written to out/<workload>.json.
type roundRecord struct {
	WallS    float64 `json:"wall_s"`
	Ops      int     `json:"ops"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"` // median latency of the round's op requests
	CPUUs    float64 `json:"daemon_cpu_us"`
	// Per segment, elapsed time and daemon CPU time: the raw values
	// behind the quiet estimates.
	SegWallMs  []float64 `json:"segment_wall_ms"`
	SegCPUUs   []float64 `json:"segment_cpu_us"`
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	GCs        uint32    `json:"gcs"`
	Hits       uint64    `json:"cache_hits"`
	Misses     uint64    `json:"cache_misses"`
	Evictions  uint64    `json:"cache_evictions"`
	WALBytes   int64     `json:"wal_bytes"`
	Edges      int       `json:"edges"`
	Status200  int       `json:"ingest_200"`
	Status202  int       `json:"ingest_202"`
	Status429  int       `json:"ingest_429"`
	ReqBytes   int64     `json:"req_bytes"`
	RespBytes  int64     `json:"resp_bytes"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Sizes     sizes              `json:"sizes"`
	PrepareS  float64            `json:"prepare_s"`
	BootsS    []float64          `json:"boots_s"`
	Rounds    []roundRecord      `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// healthz and stats are the parts of GET /healthz and GET /v1/stats the
// benchmark reads.
type healthz struct {
	Durability struct {
		Segments int `json:"segments"`
	} `json:"durability"`
	Memory struct {
		TotalAllocBytes uint64 `json:"total_alloc_bytes"`
		Mallocs         uint64 `json:"mallocs"`
		NumGC           uint32 `json:"num_gc"`
	} `json:"memory"`
	ReadCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"read_cache"`
}

type stats struct {
	Total struct {
		Items       int64
		Leaves      int
		Layers      int
		SpaceBytes  int64
		AvgLeafUtil float64
	}
}

// accuracy accumulates estimate against truth over checked answers, with
// the repository's ARE convention (internal/metrics), by query kind; path
// and subgraph answers count towards the under-estimates only.
type accuracy struct {
	edge, vertex, other metrics.Accuracy
}

func (a *accuracy) add(q query.Query, est, truth int64) {
	switch q.Kind {
	case query.KindEdge:
		a.edge.Observe(est, truth)
	case query.KindVertexOut, query.KindVertexIn:
		a.vertex.Observe(est, truth)
	default:
		a.other.Observe(est, truth)
	}
}

func (a *accuracy) undercounts() int {
	return a.edge.Undercounts() + a.vertex.Undercounts() + a.other.Undercounts()
}

// runner drives one daemon through one workload.
type runner struct {
	cfg   config
	z     sizes
	plan  plan
	res   *result
	spawn *spawner
	bin   string
	dir   string // state directory: wal/ and higgsd.log
	d     *daemon
	c     *client

	acked    int64          // edges acknowledged with a 2xx
	bodies   [][]byte       // response body of each request of the current round
	expected map[int][]byte // read-only workloads: the warm-up round's bodies
	lat      []float64      // latency (ms) of every op request of every timed round
	acc      accuracy
}

// config is what the command line chooses.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string // where runs make their state directories
	outDir   string // out/<workload>.json, out/trace.json
	z        sizes
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the timed
// phase that fullSizes.Rounds rounds were sized to at the commit that
// added the benchmark. -seconds scales the number of rounds with it.
const runSeconds = 14

func roundsFor(z sizes, seconds int) int {
	return max(minRounds, (z.Rounds*seconds+runSeconds/2)/runSeconds)
}

// buildPlan generates a workload's inputs from the seed.
func buildPlan(name string, z sizes, seed int64) (plan, stream.Stream, *queryGen, error) {
	base, err := baseStream(z, seed)
	if err != nil {
		return plan{}, nil, nil, err
	}
	gen := newQueryGen(z, base, exact.FromStream(base), seed^0x5eed)
	p := plan{name: name, opKind: opQuery}
	switch name {
	case "ingest-window":
		p.opKind = opIngest
		p.cyclesPerRound = 2
		p.round = func(r int) []op {
			first := z.WindowCycles + 2*r
			return append(cycleOps(base, z, first), cycleOps(base, z, first+1)...)
		}
	case "query-cold":
		ops := gen.queryOps(gen.coldBatches(z.ColdBatches), 0)
		p.round = func(int) []op { return ops }
	case "query-hot":
		ops := gen.queryOps(gen.hotBatches(z.HotBatches), 0)
		p.round = func(int) []op { return ops }
	case "mixed":
		hot := gen.hotBatches((z.CycleEdges + z.IngestBatch - 1) / z.IngestBatch)
		p.cyclesPerRound = 1
		p.round = func(r int) []op {
			// While cycle c is being written, the WindowCycles cycles
			// before it are whole and live; the queries ask about those.
			c := z.WindowCycles + r
			writes := cycleOps(base, z, c)
			reads := gen.queryOps(hot, c-z.WindowCycles)
			ops := make([]op, 0, len(writes)+len(reads))
			next := 0
			for _, w := range writes {
				ops = append(ops, w)
				if w.kind == opIngest {
					// The cycle's flush barriers close the segments.
					reads[next].endsSegment = false
					ops = append(ops, reads[next])
					next++
				}
			}
			return ops
		}
	default:
		return plan{}, nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, base, gen, nil
}

// runWorkload is one whole run: prepare, boot, warm up, time the rounds,
// check the answers, and (with cfg.trace) replay the workload in process.
func runWorkload(cfg config, spawn *spawner, bin string, e env) (*result, error) {
	t0 := time.Now()
	z := cfg.z
	z.Rounds = roundsFor(z, cfg.seconds)
	p, base, gen, err := buildPlan(cfg.workload, z, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.DaemonArgs = fmt.Sprint(daemonArgs("127.0.0.1:<port>", "<state>/wal", z.CacheBytes))
	e.DaemonEnv = daemonEnv
	r := &runner{
		cfg: cfg, z: z, plan: p, spawn: spawn, bin: bin, dir: dir,
		res:      &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: e, Sizes: z, Metrics: map[string]float64{}},
		expected: map[int][]byte{},
	}
	defer r.shutdown()

	if err := r.boot(); err != nil {
		return nil, err
	}
	for c := 0; c < z.WindowCycles; c++ {
		if _, err := r.runRound(cycleOps(base, z, c), false); err != nil {
			return nil, fmt.Errorf("preload cycle %d: %w", c, err)
		}
	}
	if r.res.Failed > 0 {
		return nil, fmt.Errorf("preload: %d requests failed: %v", r.res.Failed, r.res.Problems)
	}
	r.res.PrepareS = time.Since(t0).Seconds()

	// Set-up: what the program must do before it can serve this state.
	// Every boot follows a kill -9, so it is process start plus WAL
	// recovery, and it proves every acknowledged edge came back. The
	// traced run reports no set-up time and boots once, so that it too
	// serves a recovered state.
	boots := z.Boots
	if cfg.trace {
		boots = 1
	}
	for i := 0; i < boots; i++ {
		r.c.close()
		r.d.kill9()
		start := time.Now()
		if err := r.boot(); err != nil {
			return nil, err
		}
		r.res.BootsS = append(r.res.BootsS, time.Since(start).Seconds())
	}

	for round := 0; round <= z.Rounds; round++ {
		ops := p.round(round)
		rec, err := r.runRound(ops, round > 0)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if round > 0 {
			r.res.Rounds = append(r.res.Rounds, rec)
		}
	}
	if err := r.finish(gen); err != nil {
		return nil, err
	}
	if err := r.endToEnd(); err != nil {
		return nil, err
	}
	r.outside()
	r.shutdown()
	if cfg.trace {
		spans, err := tracedReplay(cfg.scratch, z, p, base, r.res.Metrics)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if err := writeJSON(filepath.Join(cfg.outDir, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	return r.res, writeJSON(filepath.Join(cfg.outDir, cfg.workload+".json"), r.res)
}

// boot starts a daemon on the run's state directory, waits until it
// serves, and checks that it holds every acknowledged edge.
func (r *runner) boot() error {
	d, err := r.spawn.startDaemon(r.bin, filepath.Join(r.dir, "wal"), filepath.Join(r.dir, "higgsd.log"), r.z.CacheBytes)
	if err != nil {
		return err
	}
	r.d = d
	if r.c, err = d.waitReady(60 * time.Second); err != nil {
		return r.withLog(err)
	}
	var st stats
	if err := r.c.getJSON("/v1/stats", &st); err != nil {
		return r.withLog(err)
	}
	r.res.Attempted++
	if st.Total.Items != r.acked {
		r.fail("boot: daemon holds %d edges, %d were acknowledged", st.Total.Items, r.acked)
	}
	return nil
}

// withLog appends the daemon's log to an error that stops the run.
func (r *runner) withLog(err error) error {
	log, _ := os.ReadFile(filepath.Join(r.dir, "higgsd.log"))
	return fmt.Errorf("%w\nhiggsd log:\n%s", err, log)
}

func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// shutdown stops the daemon; it is safe to call twice.
func (r *runner) shutdown() {
	if r.c != nil {
		r.c.close()
		r.c = nil
	}
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

// counters reads the daemon's own counters at a round boundary: /healthz
// and the size of the WAL directory.
func (r *runner) counters() (h healthz, walBytes int64, err error) {
	err = r.c.getJSON("/healthz", &h)
	return h, dirBytes(filepath.Join(r.dir, "wal")), err
}

// runRound sends the requests of one round, one after the other on the
// one connection, then — outside the timed region — checks every answer.
func (r *runner) runRound(ops []op, timed bool) (roundRecord, error) {
	var rec roundRecord
	for len(r.bodies) < len(ops) {
		r.bodies = append(r.bodies, nil)
	}
	lats := make([]float64, len(ops))
	statuses := make([]int, len(ops))
	pid := r.d.cmd.Process.Pid
	h0, wal0, err := r.counters()
	if err != nil {
		return rec, err
	}
	rx0 := r.c.rx
	cpuStart, err := cpuNanos(pid)
	if err != nil {
		return rec, err
	}
	start := time.Now()
	segStart, segCPU := start, cpuStart
	for i := range ops {
		t := time.Now()
		status, err := r.c.do(ops[i].req)
		now := time.Now()
		lats[i] = float64(now.Sub(t)) / 1e6
		if err != nil {
			return rec, r.withLog(fmt.Errorf("request %d: %w", i, err))
		}
		statuses[i] = status
		r.bodies[i] = append(r.bodies[i][:0], r.c.body...)
		if ops[i].endsSegment || i == len(ops)-1 {
			cpu, err := cpuNanos(pid)
			if err != nil {
				return rec, err
			}
			rec.SegWallMs = append(rec.SegWallMs, float64(now.Sub(segStart))/1e6)
			rec.SegCPUUs = append(rec.SegCPUUs, float64(cpu-segCPU)/1e3)
			segStart, segCPU = time.Now(), cpu
		}
	}
	rec.WallS = time.Since(start).Seconds()
	rec.CPUUs = float64(segCPU-cpuStart) / 1e3
	rec.RespBytes = r.c.rx - rx0
	h1, wal1, err := r.counters()
	if err != nil {
		return rec, err
	}
	rec.Mallocs = h1.Memory.Mallocs - h0.Memory.Mallocs
	rec.AllocBytes = h1.Memory.TotalAllocBytes - h0.Memory.TotalAllocBytes
	rec.GCs = h1.Memory.NumGC - h0.Memory.NumGC
	rec.Hits = h1.ReadCache.Hits - h0.ReadCache.Hits
	rec.Misses = h1.ReadCache.Misses - h0.ReadCache.Misses
	rec.Evictions = h1.ReadCache.Evictions - h0.ReadCache.Evictions
	rec.WALBytes = wal1 - wal0

	var opLat []float64
	for i, o := range ops {
		rec.Requests++
		rec.ReqBytes += int64(len(o.req))
		ok := statuses[i]/100 == 2
		switch o.kind {
		case opIngest:
			rec.Edges += len(o.edges)
			switch statuses[i] {
			case http.StatusOK:
				rec.Status200++
			case http.StatusAccepted:
				rec.Status202++
			case http.StatusTooManyRequests:
				rec.Status429++
			}
			if ok {
				r.acked += int64(len(o.edges))
			}
		case opQuery:
			if ok {
				ok = r.checkAnswers(o, i, timed)
			}
		}
		if o.kind == r.plan.opKind {
			opLat = append(opLat, lats[i])
			rec.Ops += len(o.edges) + len(o.queries)
		}
		if !ok {
			rec.Failed++
			r.fail("%s request %d: status %d: %.200s", r.plan.name, i, statuses[i], r.bodies[i])
		}
	}
	r.res.Attempted += rec.Requests
	rec.P50Ms = median(opLat)
	if timed {
		r.lat = append(r.lat, opLat...)
	}
	return rec, nil
}

// answer is one slot of a /v2/query response.
type answer struct {
	Weight *int64 `json:"weight"`
	Error  string `json:"error"`
}

// checkAnswers verifies one query batch's response: one weight per query,
// none below the truth — a summary never under-estimates — and, on a
// read-only workload, the same bytes as the warm-up round gave, since
// nothing has changed the state. The warm-up round's answers also feed the
// accuracy figures.
func (r *runner) checkAnswers(o op, i int, timed bool) bool {
	body := r.bodies[i]
	if r.plan.cyclesPerRound == 0 {
		if want, seen := r.expected[i]; seen {
			return bytes.Equal(body, want)
		}
		r.expected[i] = append([]byte(nil), body...)
	}
	var answers []answer
	if err := json.Unmarshal(body, &answers); err != nil || len(answers) != len(o.queries) {
		return false
	}
	ok := true
	for j, a := range answers {
		if a.Weight == nil || *a.Weight < o.exact[j] {
			ok = false
		}
		if a.Weight != nil && !timed {
			r.acc.add(o.queries[j], *a.Weight, o.exact[j])
		}
	}
	return ok
}

// finish runs what follows the last round. After a write workload it asks
// a fixed sample of questions about the final live window and checks them
// against the truth; then it takes the figures that are read once: the
// tree's shape and size, and the daemon's resident set.
func (r *runner) finish(gen *queryGen) error {
	if n := r.plan.cyclesPerRound; n > 0 {
		r.acc = accuracy{}
		last := r.z.WindowCycles + n*(r.z.Rounds+1) - 1
		sample := gen.queryOps(gen.coldBatches(max(1, r.z.VerifySample/queryBatch)), last-r.z.WindowCycles+1)
		if _, err := r.runRound(sample, false); err != nil {
			return fmt.Errorf("verification sample: %w", err)
		}
	}
	rss, err := rssBytes(r.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var st stats
	if err := r.c.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	var h healthz
	if err := r.c.getJSON("/healthz", &h); err != nil {
		return err
	}
	live := float64(r.z.WindowCycles * r.z.CycleEdges)
	m := r.res.Metrics
	m["rss_bytes_per_edge"] = float64(rss) / live
	m["space_bytes_per_edge"] = float64(st.Total.SpaceBytes) / live
	m["core.leaves"] = float64(st.Total.Leaves)
	m["core.layers"] = float64(st.Total.Layers)
	m["core.leaf_util"] = st.Total.AvgLeafUtil
	m["wal.segments"] = float64(h.Durability.Segments)
	m["core.are_edge"] = r.acc.edge.ARE()
	m["core.are_vertex"] = r.acc.vertex.ARE()
	m["core.undercounts"] = float64(r.acc.undercounts())
	return nil
}

// quietColumns takes rows of repeated measurements — one row per round,
// one column per request or segment — and returns each column's quiet
// estimate over the rounds.
func quietColumns(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, errors.New("no rounds")
	}
	col := make([]float64, len(rows))
	out := make([]float64, len(rows[0]))
	for j := range out {
		for i, row := range rows {
			if len(row) != len(out) {
				return nil, fmt.Errorf("round %d has %d measurements, round 0 has %d: the rounds are not the same work", i, len(row), len(out))
			}
			col[i] = row[j]
		}
		var err error
		if out[j], err = quiet(col, minRounds); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func total(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// endToEnd reduces the rounds to the gated metrics. A segment is a run of
// consecutive requests after which the daemon has nothing left to do — a
// flush barrier closes it on a write workload — and it is the same bytes
// in every round, so its elapsed time and its daemon CPU time each have a
// quiet estimate of their own over the rounds. A round's quiet time is the
// sum over its segments: the time the round takes when no part of it is
// disturbed. Whole rounds are too long for that here — at the commit that
// added the benchmark, hardly one round in sixteen ran undisturbed — and
// single requests too short: work the daemon does after answering (the
// committers' applies) would be counted in no request's minimum. Latency
// is a median already, so it is taken per round and estimated over rounds.
func (r *runner) endToEnd() error {
	m := r.res.Metrics
	n := len(r.res.Rounds)
	segWall, segCPU, p50 := make([][]float64, n), make([][]float64, n), make([]float64, n)
	for i, rec := range r.res.Rounds {
		segWall[i], segCPU[i], p50[i] = rec.SegWallMs, rec.SegCPUUs, rec.P50Ms
	}
	wall, err := quietColumns(segWall)
	if err != nil {
		return fmt.Errorf("segment time: %w", err)
	}
	cpu, err := quietColumns(segCPU)
	if err != nil {
		return fmt.Errorf("segment CPU: %w", err)
	}
	ops := float64(r.res.Rounds[0].Ops)
	m["ops_per_s"] = ops / (total(wall) / 1e3)
	m["cpu_us_per_op"] = total(cpu) / ops
	if m["p50_ms"], err = quiet(p50, minRounds); err != nil {
		return fmt.Errorf("p50_ms: %w", err)
	}
	if !r.cfg.trace {
		if m["setup_s"], err = quiet(r.res.BootsS, minBoots); err != nil {
			return fmt.Errorf("setup_s: %w", err)
		}
	}
	return nil
}

// outside computes the layer metrics that can be read without looking
// inside the daemon: response codes, /healthz counters, the WAL directory.
func (r *runner) outside() {
	m := r.res.Metrics
	var ops, reqs, edges, s200, s202, s429 int
	var hits, misses, evictions uint64
	var walBytes, reqBytes, respBytes int64
	var mallocs, allocBytes, gcs []float64
	for _, rec := range r.res.Rounds {
		ops += rec.Ops
		reqs += rec.Requests
		edges += rec.Edges
		s200 += rec.Status200
		s202 += rec.Status202
		s429 += rec.Status429
		hits += rec.Hits
		misses += rec.Misses
		evictions += rec.Evictions
		walBytes += rec.WALBytes
		reqBytes += rec.ReqBytes
		respBytes += rec.RespBytes
		mallocs = append(mallocs, float64(rec.Mallocs)/float64(rec.Ops))
		allocBytes = append(allocBytes, float64(rec.AllocBytes)/float64(rec.Ops))
		gcs = append(gcs, float64(rec.GCs))
	}
	sort.Float64s(r.lat) // every op request of every timed round, undisturbed or not
	m["client.p99_ms"] = percentile(r.lat, 0.99)
	m["client.max_ms"] = percentile(r.lat, 1)
	m["client.samples"] = float64(len(r.lat))
	m["transport.req_bytes_per_op"] = float64(reqBytes) / float64(ops)
	m["transport.resp_bytes_per_op"] = float64(respBytes) / float64(ops)
	m["runtime.mallocs_per_op"] = median(mallocs)
	m["runtime.alloc_bytes_per_op"] = median(allocBytes)
	m["runtime.gc_per_round"] = median(gcs)
	m["rcache.hit_ratio"] = div(float64(hits), float64(hits+misses))
	m["rcache.evictions_per_kop"] = 1000 * float64(evictions) / float64(ops)
	m["ingest.sync_share"] = div(float64(s200), float64(s200+s202))
	m["ingest.backpressure_per_kreq"] = 1000 * div(float64(s429), float64(reqs))
	m["wal.bytes_per_edge"] = div(float64(walBytes), float64(edges))
	if r.plan.cyclesPerRound == 0 && walBytes != 0 {
		r.fail("the WAL grew by %d bytes on a read-only workload", walBytes)
	}
	if r.plan.cyclesPerRound > 0 && walBytes <= 0 {
		r.fail("the WAL did not grow on a write workload")
	}
	r.res.Attempted++
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
