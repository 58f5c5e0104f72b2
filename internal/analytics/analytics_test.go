package analytics

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// newPair builds a sharded summary with an attached engine: the wiring the
// server performs when -analytics is on.
func newPair(t *testing.T, shards int, cfg Config) (*shard.Summary, *Engine) {
	t.Helper()
	scfg := shard.DefaultConfig()
	scfg.Shards = shards
	s, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shards
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetApplyObserver(e)
	return s, e
}

// ask answers one analytics query over s with e supplying candidates.
func ask(t *testing.T, s query.Prober, e *Engine, q query.Query) []query.Entry {
	t.Helper()
	r := query.DoBatchWith(s, e, []query.Query{q})[0]
	if r.Err != nil {
		t.Fatalf("%v: %v", q.Kind, r.Err)
	}
	return r.Top
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Shards: 0},
		{Shards: 2, TrackK: -1},
		{Shards: 2, EpochSeconds: -5},
		{Shards: 2, EpochRing: 1},
		{Shards: 2, BurstFactor: 0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", bad)
		}
	}
	if err := (Config{Shards: 4}).Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

// TestHeavyHittersOut: planted heavy sources must surface in order through
// every shard count, and their weights — probes of the summary — must
// never undercount (one-sided, like everything else in this repository).
func TestHeavyHittersOut(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, e := newPair(t, shards, Config{})
		truth := map[uint64]int64{}
		var tick int64
		add := func(sv, dv uint64, w int64) {
			s.Insert(stream.Edge{S: sv, D: dv, W: w, T: tick})
			tick++
			truth[sv] += w
		}
		// Background noise: 200 light vertices.
		for v := uint64(0); v < 200; v++ {
			add(v, v+1, 1)
		}
		// Three planted heavies, well above the noise and each other.
		add(1000, 1, 5_000)
		add(1001, 2, 3_000)
		add(1002, 3, 1_000)

		hh := ask(t, s, e, query.NewHeavyHitters(query.DirOut, 3))
		if len(hh) != 3 {
			t.Fatalf("shards=%d: got %d heavy hitters, want 3", shards, len(hh))
		}
		for i, want := range []uint64{1000, 1001, 1002} {
			if hh[i].S != want {
				t.Fatalf("shards=%d: rank %d = vertex %d, want %d", shards, i, hh[i].S, want)
			}
			if hh[i].Cur < truth[want] {
				t.Fatalf("shards=%d: estimate %d undercounts truth %d", shards, hh[i].Cur, truth[want])
			}
		}
	}
}

// TestHeavyHittersIn: a destination tracked in several shards is one
// candidate, and its weight sums every shard's in-probe.
func TestHeavyHittersIn(t *testing.T) {
	s, e := newPair(t, 4, Config{})
	var tick int64
	// Vertex 9999 receives weight from 64 distinct sources (spread over
	// shards); vertex 9998 receives less.
	var want9999, want9998 int64
	for i := uint64(0); i < 64; i++ {
		s.Insert(stream.Edge{S: i, D: 9999, W: 100, T: tick})
		want9999 += 100
		tick++
		s.Insert(stream.Edge{S: i, D: 9998, W: 10, T: tick})
		want9998 += 10
		tick++
	}
	hh := ask(t, s, e, query.NewHeavyHitters(query.DirIn, 2))
	if len(hh) != 2 || hh[0].S != 9999 || hh[1].S != 9998 {
		t.Fatalf("in-direction top-2 = %+v, want vertices 9999 then 9998", hh)
	}
	if hh[0].Cur < want9999 || hh[1].Cur < want9998 {
		t.Fatalf("in-estimates undercount: %+v vs %d/%d", hh, want9999, want9998)
	}
}

// TestBursts: a vertex that is quiet for several epochs and spikes in the
// current one must flag; a steady vertex must not; a vertex silent in the
// current epoch is no candidate.
func TestBursts(t *testing.T) {
	const epoch = 10
	s, e := newPair(t, 2, Config{EpochSeconds: epoch, EpochRing: 4, BurstFactor: 4, BurstMin: 16})
	// Steady vertex 7: weight 20 every epoch 0..3.
	// Bursty vertex 8: weight 2 in epochs 0..2, weight 200 in epoch 3.
	// Vertex 9: weight 500 in epoch 0 only.
	s.Insert(stream.Edge{S: 9, D: 1, W: 500, T: 0})
	for ep := int64(0); ep < 4; ep++ {
		ts := ep * epoch
		s.Insert(stream.Edge{S: 7, D: 1, W: 20, T: ts})
		w := int64(2)
		if ep == 3 {
			w = 200
		}
		s.Insert(stream.Edge{S: 8, D: 1, W: w, T: ts + 1})
	}
	bs := ask(t, s, e, query.NewBurst(10))
	want := []query.Entry{
		{S: 8, Cur: 200, Prev: 2, Score: 100, Burst: true},
		{S: 7, Cur: 20, Prev: 20, Score: 1},
	}
	if !reflect.DeepEqual(bs, want) {
		t.Fatalf("bursts = %+v, want %+v", bs, want)
	}
}

// TestNegativeTimestamps: an edge before the epoch origin falls in a
// negative epoch (floor division) instead of indexing out of range inside
// the shard's write section, and burst windows lie around it.
func TestNegativeTimestamps(t *testing.T) {
	s, e := newPair(t, 2, Config{EpochSeconds: 60})
	s.Insert(stream.Edge{S: 1, D: 2, W: 40, T: -61})
	if b := e.Burst(); b.Ts2 != -120 || b.Te2 != -61 || b.Ts != -540 || b.Te != -121 {
		t.Fatalf("burst geometry = %+v, want baseline [-540, -121], current [-120, -61]", b)
	}
	bs := ask(t, s, e, query.NewBurst(0))
	if len(bs) != 1 || bs[0].S != 1 || bs[0].Cur != 40 || !bs[0].Burst {
		t.Fatalf("bursts = %+v, want vertex 1 flagged at 40", bs)
	}
	s.Insert(stream.Edge{S: 3, D: 2, W: 1, T: math.MinInt64})
	s.Insert(stream.Edge{S: 3, D: 2, W: 1, T: math.MaxInt64})
	if b := e.Burst(); b.Te2 != math.MaxInt64 || b.Ts > b.Te || b.Te >= b.Ts2 {
		t.Fatalf("burst geometry at the end of the axis = %+v", b)
	}
	ask(t, s, e, query.NewBurst(0))
}

// TestObserverCoversWritePaths: every insert entry point (single insert,
// group-commit batch) reaches the engine; a delete reaches the answer
// through the probes.
func TestObserverCoversWritePaths(t *testing.T) {
	s, e := newPair(t, 2, Config{})
	s.Insert(stream.Edge{S: 1, D: 2, W: 5, T: 1})
	batch := []stream.Edge{{S: 3, D: 4, W: 7, T: 2}, {S: 5, D: 6, W: 9, T: 3}}
	groups := map[int][]stream.Edge{}
	for _, ed := range batch {
		i := s.ShardFor(ed.S)
		groups[i] = append(groups[i], ed)
	}
	for i, g := range groups {
		s.InsertShardAt(i, g, 10)
	}
	st := e.Stats()
	if st.Edges != 3 || st.Weight != 5+7+9 || st.TrackedOut != 3 || st.TrackedIn != 3 {
		t.Fatalf("Stats = %+v, want 3 edges, weight 21, 3 tracked each way", st)
	}
	if !s.Delete(stream.Edge{S: 1, D: 2, W: 5, T: 1}) {
		t.Fatal("delete missed")
	}
	hh := ask(t, s, e, query.NewHeavyHitters("", 10))
	if want := []query.Entry{{S: 5, Cur: 9}, {S: 3, Cur: 7}}; !reflect.DeepEqual(hh, want) {
		t.Fatalf("heavy hitters after the delete = %+v, want %+v", hh, want)
	}
}

// countingProber counts the probes the planner hands its backend.
type countingProber struct {
	query.Prober
	probes atomic.Int64
}

func (c *countingProber) ProbeShard(i int, probes []query.Probe, out []int64) {
	c.probes.Add(int64(len(probes)))
	c.Prober.ProbeShard(i, probes, out)
}

// TestAnswersAreProbes: after ingest, an expire and a delete, every
// heavy_hitters and burst weight equals a direct vertex probe of its
// window, the answers are identical through a cold and a warm read cache,
// and ProbeCount of each filled item is what the planner probes.
func TestAnswersAreProbes(t *testing.T) {
	st, err := stream.Generate(stream.Config{Nodes: 300, Edges: 8_000, Span: 40_000, Skew: 1.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, e := newPair(t, 4, Config{EpochSeconds: 2_000, TrackK: 16})
	s.InsertBatch(st)
	if s.Expire(10_000) == 0 {
		t.Fatal("expire reclaimed nothing")
	}
	s.Delete(st[len(st)-1])
	qs := []query.Query{
		query.NewHeavyHitters(query.DirOut, 20),
		query.NewHeavyHitters(query.DirIn, 20),
		query.NewBurst(query.MaxTopK),
	}
	for i := range qs {
		query.Fill(&qs[i], e)
		if len(qs[i].Candidates) == 0 {
			t.Fatalf("%v: no candidates", qs[i].Kind)
		}
	}
	cp := &countingProber{Prober: s}
	want := query.DoBatchWith(cp, e, qs)
	planned := 0
	for i, q := range qs {
		planned += q.ProbeCount(s.NumShards())
		if want[i].Err != nil || len(want[i].Top) == 0 {
			t.Fatalf("%v = %+v", q.Kind, want[i])
		}
		for _, en := range want[i].Top {
			direct := s.VertexOut(en.S, q.Ts2, q.Te2)
			switch {
			case q.Kind == query.KindHeavyHitters && q.Dir == query.DirIn:
				direct = s.VertexIn(en.S, q.Ts, q.Te)
			case q.Kind == query.KindHeavyHitters:
				direct = s.VertexOut(en.S, q.Ts, q.Te)
			}
			if en.Cur != direct {
				t.Fatalf("%v: vertex %d Cur %d, a direct probe reads %d", q.Kind, en.S, en.Cur, direct)
			}
		}
	}
	if got := cp.probes.Load(); got != int64(planned) {
		t.Fatalf("the batch probed %d times, ProbeCount says %d", got, planned)
	}
	cache, err := rcache.New(s, rcache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		if got := query.DoBatchWith(cache, e, qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s cache answers diverge:\n%+v\nvs\n%+v", pass, got, want)
		}
	}
}

// TestSpaceSaving holds the set's heap and index in step under random
// weights, and keeps an id heavier than a 1/k share tracked.
func TestSpaceSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := newSpaceSaving(8)
	for n := 0; n < 5_000; n++ {
		id := uint64(rng.Intn(64))
		if n%3 == 0 {
			id = 1000
		}
		ss.add(id, int64(rng.Intn(10)))
		if len(ss.pos) != len(ss.heap) {
			t.Fatalf("step %d: %d indexed, %d in the heap", n, len(ss.pos), len(ss.heap))
		}
		for i, tr := range ss.heap {
			if ss.pos[tr.id] != i {
				t.Fatalf("step %d: pos[%d] = %d, heap slot %d", n, tr.id, ss.pos[tr.id], i)
			}
			if i > 0 && tr.n < ss.heap[(i-1)/2].n {
				t.Fatalf("step %d: slot %d (%d) below its parent (%d)", n, i, tr.n, ss.heap[(i-1)/2].n)
			}
		}
	}
	if _, ok := ss.pos[1000]; !ok {
		t.Fatal("the id carrying a third of the stream fell out of the set")
	}
}

// batches is a skewed 64K-edge stream cut into 256-edge batches.
func batches(tb testing.TB) [][]stream.Edge {
	st, err := stream.Generate(stream.Config{Nodes: 20_000, Edges: 1 << 16, Span: 1 << 20, Skew: 1.5, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	var bs [][]stream.Edge
	for i := 0; i < len(st); i += 256 {
		bs = append(bs, st[i:i+256])
	}
	return bs
}

// BenchmarkObserveApply is the observer's cost per applied edge: 256-edge
// batches round-robin over 4 shards, the way committers deliver them.
func BenchmarkObserveApply(b *testing.B) {
	bs := batches(b)
	e, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObserveApply(i%4, bs[i%len(bs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/edge")
}

// TestObserveApplyAllocs: a warmed observer — a batch whose ids are all
// tracked, in the shard's current epoch — allocates nothing under the
// shard's write lock.
func TestObserveApplyAllocs(t *testing.T) {
	batch := batches(t)[0]
	e, err := New(Config{Shards: 1, TrackK: 512})
	if err != nil {
		t.Fatal(err)
	}
	e.ObserveApply(0, batch)
	if n := testing.AllocsPerRun(100, func() { e.ObserveApply(0, batch) }); n != 0 {
		t.Fatalf("a warmed ObserveApply allocates %.2f times, want 0", n)
	}
}

// TestConcurrentApplyAndQuery runs the real async committer path (an
// ingest.Pipeline) against concurrent analytics queries — the scenario the
// -race CI job must hold clean. After the final flush the engine must have
// absorbed every accepted edge exactly once.
func TestConcurrentApplyAndQuery(t *testing.T) {
	st, err := stream.Generate(stream.Config{
		Nodes: 150, Edges: 20_000, Span: 50_000, Skew: 2.0, Variance: 700,
		Slices: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, e := newPair(t, 4, Config{EpochSeconds: 5_000})
	p, err := ingest.New(s, ingest.Config{CommitInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				query.DoBatchWith(s, e, []query.Query{
					query.NewHeavyHitters(query.DirOut, 10),
					query.NewHeavyHitters(query.DirIn, 10),
					query.NewBurst(10),
				})
			}
		}()
	}

	var total int64
	for i := 0; i < len(st); i += 64 {
		end := min(i+64, len(st))
		for {
			if _, err := p.Submit(st[i:end]); err == nil {
				break
			} else if !errors.Is(err, ingest.ErrQueueFull) {
				t.Fatal(err)
			}
		}
		for _, ed := range st[i:end] {
			total += ed.W
		}
	}
	p.Flush()
	close(stop)
	wg.Wait()
	p.Close()

	est := e.Stats()
	if est.Edges != int64(len(st)) {
		t.Fatalf("engine saw %d edges, pipeline applied %d", est.Edges, len(st))
	}
	if est.Weight != total {
		t.Fatalf("engine saw weight %d, stream total %d", est.Weight, total)
	}
}
