package rcache

import (
	"math"
	"math/rand"
	"testing"

	"higgs/internal/core"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// appendProgram interprets a byte string as an op program against one small
// sharded summary — insert batches whose items advance time by 0..3 (so
// same-timestamp runs are common) or arrive out of order, deletes of edges
// inserted earlier, expires — and after every op asks a recurring probe set
// of both the cache and the bare summary, failing on the first difference.
// Bytes past the end read as zero, so every string is a program.
type appendProgram struct {
	data []byte
	pos  int
}

func (p *appendProgram) next() int {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return int(p.data[p.pos-1])
}

const (
	progVertices = 12
	progStart    = 1_000 // the first timestamp; windows start no earlier
)

// run executes the program and returns the cache's counters, the summary it
// ran against, and the largest structure counts seen on the way (expires
// shrink the tree again, so the final ones say little).
func (p *appendProgram) run(t testing.TB) (Stats, *shard.Summary, core.Stats) {
	// Leaves of 16 slots: a few hundred edges close leaves and seal levels.
	cfg := shard.Config{Shards: 2, Core: core.DefaultConfig()}
	cfg.Core.D1, cfg.Core.B, cfg.Core.Maps = 4, 1, 2
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(s, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	now := int64(progStart)
	frontier := make([]int64, cfg.Shards) // what each shard's must be
	for i := range frontier {
		frontier[i] = math.MinInt64
	}
	var applied []stream.Edge // as the core stored them: clamped
	var peak core.Stats
	for step := 0; p.pos < len(p.data); step++ {
		switch op := p.next() % 8; {
		case op < 4:
			batch := make([]stream.Edge, 1+p.next()%16)
			for k := range batch {
				a, b := p.next(), p.next()
				e := stream.Edge{S: uint64(a % progVertices), D: uint64(a / progVertices % progVertices), W: int64(1 + b&3), T: now}
				if late := b >> 2; late >= 56 {
					e.T = now - int64(late) // out of order: the core clamps it
				} else {
					now += int64(late & 3)
					e.T = now
				}
				batch[k] = e
				i := s.ShardFor(e.S)
				e.T = max(e.T, frontier[i])
				frontier[i] = e.T
				applied = append(applied, e)
			}
			s.InsertBatch(batch)
		case op == 4:
			if len(applied) > 0 {
				s.Delete(applied[(p.next()<<8|p.next())%len(applied)])
			}
		case op == 5:
			s.Expire(now - int64(p.next()))
		}
		if step%64 == 0 {
			cs := s.Stats().Total
			peak.Layers = max(peak.Layers, cs.Layers)
			peak.SealedMatrices = max(peak.SealedMatrices, cs.SealedMatrices)
			peak.OverflowBlocks = max(peak.OverflowBlocks, cs.OverflowBlocks)
		}

		for i := range frontier {
			if f, _ := s.ShardFrontier(i); f != frontier[i] {
				t.Fatalf("step %d: shard %d publishes frontier %d, its newest applied timestamp is %d", step, i, f, frontier[i])
			}
			probes := programProbes(s, i, now)
			want, got := make([]int64, len(probes)), make([]int64, len(probes))
			s.ProbeShard(i, probes, want)
			c.ProbeShard(i, probes, got)
			for j, pr := range probes {
				if got[j] != want[j] {
					t.Fatalf("step %d, shard %d (frontier %d), probe %+v: cached %d, uncached %d", step, i, frontier[i], pr, got[j], want[j])
				}
			}
		}
	}
	return c.Stats(), s, peak
}

// programProbes is the probe set asked of shard i after every op: every
// vertex the shard owns (out-weight and two of its edges) and two in-weights,
// over windows that end before, at and after the shard's frontier and on a
// 64-tick grid around now — keys that recur from step to step, so entries
// filled at one step are found, frozen or stale, at the next.
func programProbes(s *shard.Summary, i int, now int64) []query.Probe {
	grid := now &^ 63
	ends := []int64{grid + 64, grid, grid - 64, grid - 256}
	if f, _ := s.ShardFrontier(i); f != math.MinInt64 {
		ends = append(ends, f-1, f, f+40)
	}
	var probes []query.Probe
	for _, te := range ends {
		for _, ts := range []int64{progStart, te - 48} {
			for v := uint64(0); v < progVertices; v++ {
				if s.ShardFor(v) != i {
					continue
				}
				probes = append(probes,
					query.Probe{Op: query.OpVertexOut, S: v, Ts: ts, Te: te},
					query.Probe{Op: query.OpEdge, S: v, D: (v + 1) % progVertices, Ts: ts, Te: te},
					query.Probe{Op: query.OpEdge, S: v, D: (v + 5) % progVertices, Ts: ts, Te: te})
			}
			probes = append(probes,
				query.Probe{Op: query.OpVertexIn, S: 1, Ts: ts, Te: te},
				query.Probe{Op: query.OpVertexIn, S: 6, Ts: ts, Te: te})
		}
	}
	return probes
}

// TestCachedEqualsUncachedUnderAppends is the differential test of the
// frozen rule (DESIGN.md §16): seeded op programs, cached ≡ uncached after
// every op. It is not vacuous only if entries were served across writes,
// rewrites did kill them, and the stream closed leaves, sealed levels,
// clamped items and opened overflow blocks on the way — all checked below.
// Freezing on te <= frontier instead of te < frontier fails it (seed 1,
// step 5): the probe set asks for windows ending exactly at the frontier,
// and the next same-timestamp or clamped item lands inside them.
func TestCachedEqualsUncachedUnderAppends(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 12_000)
		rng.Read(data)
		st, s, peak := (&appendProgram{data: data}).run(t)

		if st.FrozenHits == 0 || st.Evictions == 0 {
			t.Fatalf("seed %d: %+v: no entry outlived a write, or none died", seed, st)
		}
		rewrites := uint64(0)
		for i := 0; i < s.NumShards(); i++ {
			_, rw := s.ShardFrontier(i)
			rewrites += rw
		}
		clamped := s.Stats().Total.Clamped
		if rewrites == 0 || peak.Layers < 4 || peak.SealedMatrices == 0 || clamped == 0 || peak.OverflowBlocks == 0 {
			t.Fatalf("seed %d: program too tame: %d rewrites, %d layers, %d sealed aggregates, %d clamped, %d overflow blocks",
				seed, rewrites, peak.Layers, peak.SealedMatrices, clamped, peak.OverflowBlocks)
		}
	}
}

// FuzzCachedEqualsUncached lets the fuzzer write the program.
func FuzzCachedEqualsUncached(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Fill, append at the same instant, re-ask; then delete and expire.
	f.Add([]byte{0, 3, 1, 4, 14, 4, 27, 8, 40, 0, 0, 0, 1, 0, 1, 0, 6, 4, 0, 1, 5, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4_096 {
			t.Skip("a long program only repeats a short one")
		}
		(&appendProgram{data: data}).run(t)
	})
}
