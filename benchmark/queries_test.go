package main

import (
	"testing"

	"higgs/internal/exact"
	"higgs/internal/query"
	"higgs/internal/stream"
)

func testGen(t *testing.T, seed int64) (*queryGen, stream.Stream) {
	t.Helper()
	base, err := baseStream(testSizes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return newQueryGen(testSizes, base, exact.FromStream(base), seed), base
}

func TestBatchShape(t *testing.T) {
	g, _ := testGen(t, 3)
	for _, batches := range [][][]query.Query{g.coldBatches(5), g.hotBatches(5)} {
		for _, b := range batches {
			if len(b) != queryBatch {
				t.Fatalf("batch of %d queries, want %d", len(b), queryBatch)
			}
			probes := 0
			for i, q := range b {
				if err := q.Validate(); err != nil {
					t.Fatalf("query %d invalid: %v", i, err)
				}
				probes += q.ProbeCount(shards)
			}
			if probes != probesPerBatch {
				t.Fatalf("batch plans %d probes, want %d", probes, probesPerBatch)
			}
			if b[0].Kind != query.KindEdge || b[batchEdges].Kind != query.KindVertexOut ||
				b[queryBatch-3].Kind != query.KindVertexIn || b[queryBatch-2].Kind != query.KindPath ||
				b[queryBatch-1].Kind != query.KindSubgraph {
				t.Fatal("batch kinds out of order")
			}
			if len(b[queryBatch-2].Path) != pathHops+1 || len(b[queryBatch-1].Edges) != subgraphEdges {
				t.Fatal("path or subgraph of the wrong size")
			}
		}
	}
}

// The cold list must never repeat a probe and must hold several times
// what the cache does; the hot list must fit the cache several times over.
func TestWorkingSets(t *testing.T) {
	for _, z := range []sizes{testSizes, fullSizes} {
		base, err := baseStream(z, 3)
		if err != nil {
			t.Fatal(err)
		}
		g := newQueryGen(z, base, exact.FromStream(base), 3)
		cacheEntries := z.cacheEntries()

		cold := distinctProbes(g.coldBatches(z.ColdBatches))
		if cold != z.ColdBatches*probesPerBatch {
			t.Errorf("cold list: %d distinct probes in %d batches, want every probe distinct (%d)", cold, z.ColdBatches, z.ColdBatches*probesPerBatch)
		}
		if cold < 3*cacheEntries {
			t.Errorf("cold list: %d distinct probes, want at least 3 × the cache's %d entries", cold, cacheEntries)
		}
		hot := distinctProbes(g.hotBatches(z.HotBatches))
		if hot > z.HotDistinct {
			t.Errorf("hot list: %d distinct probes, want at most %d", hot, z.HotDistinct)
		}
		if 3*hot > cacheEntries {
			t.Errorf("hot list: %d distinct probes do not fit the cache's %d entries three times over", hot, cacheEntries)
		}
	}
}

// exactAnswer sums the base cycle's answer over the window's cycles; a
// store built from the whole window must agree.
func TestExactAnswerMatchesWholeWindow(t *testing.T) {
	g, base := testGen(t, 5)
	z := testSizes
	whole := exact.New()
	for c := 0; c < z.WindowCycles; c++ {
		for _, e := range base {
			e.T += int64(c) * z.Span
			whole.Insert(e)
		}
	}
	positive := 0
	for _, b := range g.coldBatches(20) {
		for _, q := range b {
			var want int64
			switch q.Kind {
			case query.KindEdge:
				want = whole.EdgeWeight(q.S, q.D, q.Ts, q.Te)
			case query.KindVertexOut:
				want = whole.VertexOut(q.V, q.Ts, q.Te)
			case query.KindVertexIn:
				want = whole.VertexIn(q.V, q.Ts, q.Te)
			case query.KindPath:
				want = whole.PathWeight(q.Path, q.Ts, q.Te)
			case query.KindSubgraph:
				want = whole.SubgraphWeight(q.Edges, q.Ts, q.Te)
			}
			if got := g.exactAnswer(q); got != want {
				t.Fatalf("%v: exactAnswer = %d, the whole window says %d", q, got, want)
			}
			if want > 0 {
				positive++
			}
		}
	}
	if positive < 20*queryBatch/2 {
		t.Errorf("only %d of %d queries have a non-zero answer: the generator is not asking about live edges", positive, 20*queryBatch)
	}
}

func TestQueryOpsShiftWindows(t *testing.T) {
	g, _ := testGen(t, 5)
	z := testSizes
	rel := g.hotBatches(4)
	ops := g.queryOps(rel, 3)
	for i, o := range ops {
		if o.endsSegment != ((i+1)%z.QuerySegment == 0 || i == len(ops)-1) {
			t.Errorf("batch %d: endsSegment = %v", i, o.endsSegment)
		}
		for j, q := range o.queries {
			if q.Ts != rel[i][j].Ts+cycleStart(z, 3) || q.Te != rel[i][j].Te+cycleStart(z, 3) {
				t.Fatalf("batch %d query %d: window [%d, %d] is not the relative window shifted to cycle 3", i, j, q.Ts, q.Te)
			}
			if q.Ts < cycleStart(z, 3) || q.Te >= cycleStart(z, 3+z.WindowCycles) {
				t.Fatalf("batch %d query %d: window [%d, %d] leaves the live cycles", i, j, q.Ts, q.Te)
			}
		}
	}
}
