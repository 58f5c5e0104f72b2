package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// TestConcurrentIngestAndQuery drives writers and readers through the
// sharded summary simultaneously — the concurrency contract the package
// exists for. Run with -race; correctness checks are deliberately loose
// (one-sidedness, no panics) because estimates legitimately move while
// ingest is in flight.
func TestConcurrentIngestAndQuery(t *testing.T) {
	st, err := stream.Generate(stream.Config{
		Nodes: 100, Edges: 24_000, Span: 60_000, Skew: 2.0, Variance: 800,
		Slices: 120, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newSharded(t, 8)

	// Writers: partition the stream by shard up front so each shard still
	// sees non-decreasing timestamps, then ingest all partitions at once.
	parts := make([][]stream.Edge, s.NumShards())
	for _, e := range st {
		i := s.ShardFor(e.S)
		parts[i] = append(parts[i], e)
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for i := 0; i < len(part); i += 64 {
				end := min(i+64, len(part))
				s.InsertBatch(part[i:end])
			}
		}(part)
	}

	// Readers: hammer every query type while ingest runs.
	var stop atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for v := uint64(0); !stop.Load(); v = (v + 1) % 100 {
				if s.EdgeWeight(v, v+1, 0, 60_000) < 0 {
					t.Error("negative edge estimate")
					return
				}
				_ = s.VertexOut(v, 0, 30_000)
				_ = s.VertexIn(v, 10_000, 60_000)
				_ = s.PathWeight([]uint64{v, v + 1, v + 2}, 0, 60_000)
				_ = s.SubgraphWeight([][2]uint64{{v, v + 1}, {v + 2, v}}, 0, 60_000)
				if g == 0 {
					_ = s.Stats()
					_ = s.Items()
				}
			}
		}(g)
	}

	wg.Wait()
	stop.Store(true)
	readers.Wait()

	s.Finalize()
	if got := s.Items(); got != int64(len(st)) {
		t.Fatalf("Items = %d, want %d", got, len(st))
	}
	// After the dust settles, estimates must cover the truth.
	truth := make(map[[2]uint64]int64)
	for _, e := range st {
		truth[[2]uint64{e.S, e.D}] += e.W
	}
	for k, want := range truth {
		if got := s.EdgeWeight(k[0], k[1], 0, 60_000); got < want {
			t.Fatalf("EdgeWeight(%d,%d) = %d undercounts %d", k[0], k[1], got, want)
		}
	}
}

// TestConcurrentFirstColumnIndex: eight goroutines probe VertexIn through
// ProbeShard, under the shard read lock alone, on a summary whose sealed
// aggregates have never met a ColSum, so they race to build each column
// index. Every answer equals the one a twin summary gives single-threaded,
// and the twins end with the same HeapBytes: each index was built and
// counted once. Run with -race.
func TestConcurrentFirstColumnIndex(t *testing.T) {
	st, err := stream.Generate(stream.Config{
		Nodes: 80, Edges: 16_000, Span: 40_000, Skew: 2.0, Variance: 700,
		Slices: 80, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, s := newSharded(t, 4), newSharded(t, 4)
	ref.InsertBatch(st)
	s.InsertBatch(st)
	// Stats seals every closed node and builds no column index.
	before := s.Stats().Total
	if before.SealedMatrices == 0 || ref.Stats().Total.HeapBytes != before.HeapBytes {
		t.Fatalf("twins differ or hold no sealed aggregate: %+v", before)
	}
	const vertices = 80
	probes := make([]query.Probe, vertices)
	for v := range probes {
		probes[v] = query.Probe{Op: query.OpVertexIn, S: uint64(v), Ts: 5_000, Te: 35_000}
	}
	want := make([][]int64, s.NumShards())
	for i := range want {
		want[i] = make([]int64, vertices)
		ref.ProbeShard(i, probes, want[i])
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int64, 1)
			<-start
			for k := 0; k < s.NumShards()*vertices; k++ { // all in step, to race on each build
				i, v := k/vertices, k%vertices
				s.ProbeShard(i, probes[v:v+1], out)
				if out[0] != want[i][v] {
					t.Errorf("goroutine %d: shard %d VertexIn(%d) = %d, single-threaded %d", g, i, v, out[0], want[i][v])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	after, refAfter := s.Stats().Total.HeapBytes, ref.Stats().Total.HeapBytes
	if after != refAfter || after <= before.HeapBytes {
		t.Fatalf("HeapBytes %d → %d after concurrent first probes, %d single-threaded", before.HeapBytes, after, refAfter)
	}
}

// TestConcurrentSnapshotDuringIngest: WriteTo locks shard by shard, so a
// snapshot taken mid-ingest is a valid, loadable summary.
func TestConcurrentSnapshotDuringIngest(t *testing.T) {
	st, err := stream.Generate(stream.Config{
		Nodes: 60, Edges: 12_000, Span: 40_000, Skew: 2.0, Variance: 700,
		Slices: 80, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newSharded(t, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.InsertBatch(st)
	}()
	for i := 0; i < 5; i++ {
		var buf discardCounter
		if _, err := s.WriteTo(&buf); err != nil {
			t.Errorf("WriteTo during ingest: %v", err)
		}
	}
	wg.Wait()
}

// discardCounter is an io.Writer sink (bytes.Buffer reallocation noise is
// pointless under -race).
type discardCounter struct{ n int64 }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}
