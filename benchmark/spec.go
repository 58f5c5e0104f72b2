package main

// sizes fixes the amount of work of one run. The benchmark measures fixed
// work, not fixed time: a round is the same requests every time, so two
// rounds differ only by what the machine added. fullSizes is what
// BENCHMARK.json's run_seconds was sized for at the commit that added the
// benchmark (40 rounds of 0.3–0.4 s); the smoke test divides it by 50.
type sizes struct {
	CycleEdges   int   // B: edges of the base stream, replayed once per cycle
	Nodes        int   // vertex universe of the base stream
	Span         int64 // seconds one cycle covers
	WindowCycles int   // cycles kept live by expiry; also the seed state
	Rounds       int   // R: timed rounds per run
	Boots        int   // kill -9 + recovery boots behind setup_s
	IngestBatch  int   // edges per POST /v1/ingest
	FlushEvery   int   // ingest batches between two POST /v1/flush barriers
	QuerySegment int   // query batches per segment of a read-only round
	ColdBatches  int   // query-cold: batches per round, all probes distinct
	HotBatches   int   // query-hot: batches per round
	HotDistinct  int   // query-hot and mixed: upper bound on distinct probes
	CacheBytes   int64 // higgsd -cache-bytes
	VerifySample int   // in-window queries checked after the last write round
	TraceRounds  int   // rounds replayed at each seam of the traced run
}

var fullSizes = sizes{
	CycleEdges:   80_000,
	Nodes:        32_000,
	Span:         80_000,
	WindowCycles: 4,
	Rounds:       40,
	Boots:        7,
	IngestBatch:  256,
	FlushEvery:   48,
	QuerySegment: 32,
	ColdBatches:  1100,
	HotBatches:   3000,
	HotDistinct:  2000,
	CacheBytes:   1 << 20,
	VerifySample: 2000,
	TraceRounds:  4,
}

// cacheEntries is how many probe results the read cache holds: rcache
// accounts 120 bytes an entry.
func (z sizes) cacheEntries() int { return int(z.CacheBytes / 120) }

// scaled divides the work of a run by `by`, keeping batch shapes, round
// and boot counts: the smoke test runs the real code paths on a toy state.
func (z sizes) scaled(by int) sizes {
	z.CycleEdges /= by
	z.Nodes /= by
	z.Span /= int64(by)
	z.ColdBatches /= by
	z.HotBatches /= by
	z.HotDistinct /= by
	z.VerifySample /= by
	// The cold list must still overflow the cache, whose floor is 64 KiB.
	z.CacheBytes = 64 << 10
	if min := 3*z.cacheEntries()/probesPerBatch + 1; z.ColdBatches < min {
		z.ColdBatches = min
	}
	return z
}

// shards is the fixed topology's shard count (higgsd -shards).
const shards = 4

// timeOrigin is the timestamp of the first edge of cycle 0. Ten digits, so
// shifting a cycle in time never changes the length of a request body.
const timeOrigin = 1_000_000_000

// metric describes one reported number, as BENCHMARK.json does. Bound, on
// end-to-end metrics only, is the share of the parent's median by which
// the metric may get worse. README.md says what each metric means and
// which end-to-end metric each layer metric is predicted to move.
type metric struct {
	Name   string
	Unit   string
	Higher bool // true when a higher value is better
	Bound  float64
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Bound: 0.25},
	{Name: "rss_bytes_per_edge", Unit: "B", Bound: 0.15},
	{Name: "space_bytes_per_edge", Unit: "B", Bound: 0.01},
}

var perLayer = []metric{
	// Read from outside the daemon: response codes, /healthz, /v1/stats,
	// the WAL directory.
	{Name: "client.p99_ms", Unit: "ms"},
	{Name: "client.max_ms", Unit: "ms"},
	{Name: "client.samples", Unit: "count", Higher: true},
	{Name: "transport.req_bytes_per_op", Unit: "B"},
	{Name: "transport.resp_bytes_per_op", Unit: "B"},
	{Name: "runtime.mallocs_per_op", Unit: "count"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B"},
	{Name: "runtime.gc_per_round", Unit: "count"},
	{Name: "rcache.hit_ratio", Unit: "ratio", Higher: true},
	{Name: "rcache.evictions_per_kop", Unit: "count"},
	{Name: "ingest.sync_share", Unit: "ratio", Higher: true},
	{Name: "ingest.backpressure_per_kreq", Unit: "count"},
	{Name: "wal.bytes_per_edge", Unit: "B"},
	{Name: "wal.segments", Unit: "count"},
	{Name: "core.leaves", Unit: "count"},
	{Name: "core.layers", Unit: "count"},
	{Name: "core.leaf_util", Unit: "ratio", Higher: true},
	{Name: "core.are_edge", Unit: "ratio"},
	{Name: "core.are_vertex", Unit: "ratio"},
	{Name: "core.undercounts", Unit: "count"},
	// From the traced replay, in the generator's own process.
	{Name: "transport.us_per_op", Unit: "us"},
	{Name: "server.us_per_op", Unit: "us"},
	{Name: "server.self_us_per_op", Unit: "us"},
	{Name: "server.allocs_per_op", Unit: "count"},
	{Name: "query.us_per_op", Unit: "us"},
	{Name: "query.self_us_per_op", Unit: "us"},
	{Name: "query.probes_per_op", Unit: "count"},
	{Name: "query.shard_groups_per_batch", Unit: "count"},
	{Name: "rcache.us_per_probe", Unit: "us"},
	{Name: "rcache.self_us_per_probe", Unit: "us"},
	{Name: "rcache.backend_calls_per_batch", Unit: "count"},
	{Name: "shard.probe_us_per_probe", Unit: "us"},
	{Name: "shard.read_locks_per_batch", Unit: "count"},
	{Name: "shard.insert_us_per_edge", Unit: "us"},
	{Name: "core.probe_us_per_probe", Unit: "us"},
	{Name: "core.insert_us_per_edge", Unit: "us"},
	{Name: "core.expire_us_per_kleaf", Unit: "us"},
	{Name: "ingest.us_per_edge", Unit: "us"},
	{Name: "ingest.self_us_per_edge", Unit: "us"},
	{Name: "ingest.flush_ms", Unit: "ms"},
	{Name: "wal.us_per_edge", Unit: "us"},
	{Name: "wal.fsyncs_per_kedge", Unit: "count"},
	{Name: "wal.replay_eps", Unit: "1/s", Higher: true},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
}

// workloadNames lists the workloads in BENCHMARK.json's order; the file
// and README.md say why each exists.
var workloadNames = []string{"ingest-window", "query-cold", "query-hot", "mixed"}
