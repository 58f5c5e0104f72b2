package analytics

import (
	"errors"
	"sync"
	"testing"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/query"
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
	t.Cleanup(s.Close)
	cfg.Shards = shards
	cfg.Seed = scfg.Core.Seed
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetApplyObserver(e)
	return s, e
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
// every shard count, and their sketch estimates must never undercount
// (one-sided, like everything else in this repository).
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

		hh := e.HeavyHitters(query.DirOut, 3)
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

// TestHeavyHittersIn: in-weight candidates are per-shard partials whose
// query-time sum must cover destinations fed from sources in different
// shards.
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
	hh := e.HeavyHitters(query.DirIn, 2)
	if len(hh) != 2 || hh[0].S != 9999 || hh[1].S != 9998 {
		t.Fatalf("in-direction top-2 = %+v, want vertices 9999 then 9998", hh)
	}
	if hh[0].Cur < want9999 || hh[1].Cur < want9998 {
		t.Fatalf("in-estimates undercount: %+v vs %d/%d", hh, want9999, want9998)
	}
}

// TestBursts: a vertex that is quiet for several epochs and spikes in the
// current one must flag; a steady vertex must not.
func TestBursts(t *testing.T) {
	const epoch = 10
	s, e := newPair(t, 2, Config{EpochSeconds: epoch, EpochRing: 4, BurstFactor: 4, BurstMin: 16})
	// Steady vertex 7: weight 20 every epoch 0..3.
	// Bursty vertex 8: weight 2 in epochs 0..2, weight 200 in epoch 3.
	for ep := int64(0); ep < 4; ep++ {
		ts := ep * epoch
		s.Insert(stream.Edge{S: 7, D: 1, W: 20, T: ts})
		w := int64(2)
		if ep == 3 {
			w = 200
		}
		s.Insert(stream.Edge{S: 8, D: 1, W: w, T: ts + 1})
	}
	bs := e.Bursts(10)
	got := map[uint64]query.Entry{}
	for _, b := range bs {
		got[b.S] = b
	}
	b8, ok := got[8]
	if !ok || !b8.Burst {
		t.Fatalf("vertex 8 not flagged: %+v", bs)
	}
	if b7, ok := got[7]; ok && b7.Burst {
		t.Fatalf("steady vertex 7 wrongly flagged: %+v", b7)
	}
	if st := e.Stats(); st.CurrentBurst < 1 || st.BurstsRaised < 1 {
		t.Fatalf("Stats bursts = %+v, want ≥ 1 current and raised", st)
	}
}

// TestObserverCoversWritePaths: every shard entry point (single insert,
// group-commit batch, delete) must reach the engine.
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
	if !s.Delete(stream.Edge{S: 1, D: 2, W: 5, T: 1}) {
		t.Fatal("delete missed")
	}
	st := e.Stats()
	if st.Edges != 3 {
		t.Fatalf("Edges = %d, want 3", st.Edges)
	}
	if st.Deletes != 1 {
		t.Fatalf("Deletes = %d, want 1", st.Deletes)
	}
	if st.Weight != 5+7+9 {
		t.Fatalf("Weight = %d, want 21", st.Weight)
	}
}

// TestConcurrentApplyAndQuery runs the real async committer path (an
// ingest.Pipeline) against concurrent sketch queries — the scenario the
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
				e.HeavyHitters(query.DirOut, 10)
				e.HeavyHitters(query.DirIn, 10)
				e.Bursts(10)
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
