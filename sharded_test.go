package higgs_test

import (
	"bytes"
	"sync"
	"testing"

	"higgs"
)

func TestShardedFacade(t *testing.T) {
	s, err := higgs.NewSharded(higgs.DefaultShardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 100})
	s.Insert(higgs.Edge{S: 1, D: 2, W: 4, T: 200})
	s.Insert(higgs.Edge{S: 2, D: 3, W: 5, T: 300})
	if got := s.EdgeWeight(1, 2, 0, 250); got != 7 {
		t.Errorf("EdgeWeight = %d, want 7", got)
	}
	if got := s.VertexIn(3, 0, 400); got != 5 {
		t.Errorf("VertexIn = %d, want 5", got)
	}
	if got := s.PathWeight([]uint64{1, 2, 3}, 0, 400); got != 12 {
		t.Errorf("PathWeight = %d, want 12", got)
	}
	if st := s.Stats(); st.Total.Items != 3 || st.Shards != 4 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestShardedFacadeConcurrent: the public sharded type is safe for
// concurrent writers and readers (run with -race).
func TestShardedFacadeConcurrent(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 8
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Insert(higgs.Edge{S: uint64(w*1000 + i), D: uint64(i), W: 1, T: int64(i)})
				_ = s.VertexIn(uint64(i), 0, 1000)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Items(); got != 2000 {
		t.Fatalf("Items = %d, want 2000", got)
	}
}

func TestShardedFacadeSnapshot(t *testing.T) {
	s, err := higgs.NewSharded(higgs.DefaultShardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 100})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := higgs.LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.EdgeWeight(1, 2, 0, 200); got != 3 {
		t.Fatalf("EdgeWeight after reload = %d, want 3", got)
	}

}
