package higgs_test

import (
	"fmt"

	"higgs"
)

// The basic lifecycle: create a summary, ingest a stream, query it.
func Example() {
	s, err := higgs.New(higgs.DefaultConfig())
	if err != nil {
		panic(err)
	}
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 100})
	s.Insert(higgs.Edge{S: 1, D: 2, W: 4, T: 200})
	s.Insert(higgs.Edge{S: 2, D: 3, W: 5, T: 300})

	fmt.Println(s.EdgeWeight(1, 2, 0, 250))
	fmt.Println(s.VertexOut(1, 0, 300))
	// Output:
	// 7
	// 7
}

// Temporal ranges restrict every query primitive.
func ExampleSummary_EdgeWeight() {
	s, _ := higgs.New(higgs.DefaultConfig())
	s.Insert(higgs.Edge{S: 7, D: 9, W: 2, T: 10})
	s.Insert(higgs.Edge{S: 7, D: 9, W: 5, T: 20})
	fmt.Println(s.EdgeWeight(7, 9, 15, 25)) // only the t=20 arrival
	// Output: 5
}

// Path queries compose edge queries (paper §III).
func ExampleSummary_PathWeight() {
	s, _ := higgs.New(higgs.DefaultConfig())
	s.Insert(higgs.Edge{S: 1, D: 2, W: 1, T: 1})
	s.Insert(higgs.Edge{S: 2, D: 3, W: 2, T: 2})
	fmt.Println(s.PathWeight([]uint64{1, 2, 3}, 0, 10))
	// Output: 3
}

// Deletion removes a previously inserted item at its exact timestamp.
func ExampleSummary_Delete() {
	s, _ := higgs.New(higgs.DefaultConfig())
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 50})
	fmt.Println(s.Delete(higgs.Edge{S: 1, D: 2, W: 3, T: 50}))
	fmt.Println(s.EdgeWeight(1, 2, 0, 100))
	// Output:
	// true
	// 0
}

// DoBatch answers a mixed batch of query kinds with at most one
// read-lock acquisition per shard; invalid queries error in their own
// Result slot without failing the batch.
func ExampleSharded_DoBatch() {
	s, _ := higgs.NewSharded(higgs.DefaultShardedConfig())
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 100})
	s.Insert(higgs.Edge{S: 2, D: 3, W: 5, T: 200})

	results := s.DoBatch([]higgs.Query{
		higgs.NewEdgeQuery(1, 2, higgs.Between(0, 250)),
		higgs.NewVertexQuery(3, higgs.Between(0, 250), higgs.WithDirection(higgs.DirIn)),
		higgs.NewPathQuery([]uint64{1, 2, 3}, higgs.Between(0, 250)),
		higgs.NewEdgeQuery(1, 2, higgs.Between(250, 0)), // inverted window: per-query error
	})
	for _, r := range results {
		if r.Err != nil {
			fmt.Println("error:", r.Err)
			continue
		}
		fmt.Println(r.Weight)
	}
	// Output:
	// 3
	// 5
	// 8
	// error: inverted time range: te = 0 < ts = 250
}

// FromStream bulk-loads and finalizes in one call.
func ExampleFromStream() {
	stream := higgs.Stream{
		{S: 1, D: 2, W: 1, T: 1},
		{S: 2, D: 3, W: 2, T: 2},
		{S: 3, D: 1, W: 4, T: 3},
	}
	s, _ := higgs.FromStream(higgs.DefaultConfig(), stream)
	fmt.Println(s.Items(), s.VertexIn(1, 0, 10))
	// Output: 3 4
}
