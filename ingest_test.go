package higgs_test

import (
	"errors"
	"sync"
	"testing"

	"higgs"
)

// TestIngestFacade exercises the public group-commit pipeline: async
// submits become visible after Flush, and Close drains without loss.
func TestIngestFacade(t *testing.T) {
	s, err := higgs.NewSharded(higgs.DefaultShardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := higgs.NewIngest(s, higgs.DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	applied, err := p.Submit([]higgs.Edge{
		{S: 1, D: 2, W: 3, T: 100},
		{S: 1, D: 2, W: 4, T: 200},
		{S: 2, D: 3, W: 5, T: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("Submit reported a synchronous apply")
	}
	p.Flush()
	if got := s.EdgeWeight(1, 2, 0, 250); got != 7 {
		t.Errorf("EdgeWeight after Flush = %d, want 7", got)
	}
	p.Close() // drains; summary closed by the deferred s.Close afterwards
	if _, err := p.Submit([]higgs.Edge{{S: 9, D: 9, W: 1, T: 400}}); !errors.Is(err, higgs.ErrIngestClosed) {
		t.Errorf("Submit after Close = %v, want ErrIngestClosed", err)
	}
	if got := s.Items(); got != 3 {
		t.Errorf("Items = %d, want 3", got)
	}
}

// TestIngestFacadeConcurrent: the pipeline is safe for concurrent
// submitters and flushers (run with -race).
func TestIngestFacadeConcurrent(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 4
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := higgs.NewIngest(s, higgs.IngestConfig{QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				e := []higgs.Edge{{S: uint64(w*1000 + i), D: uint64(i), W: 1, T: int64(i)}}
				for {
					if _, err := p.Submit(e); err == nil {
						break
					} else if !errors.Is(err, higgs.ErrIngestQueueFull) {
						t.Error(err)
						return
					}
				}
				if i%100 == 0 {
					p.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
	p.Flush()
	if got := s.Items(); got != 1600 {
		t.Fatalf("Items = %d, want 1600", got)
	}
}
