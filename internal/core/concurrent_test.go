package core

import (
	"sync"
	"testing"
)

// TestConcurrentQueriesAfterInsertion: once insertion has finished,
// queries are safe from many goroutines simultaneously (the documented
// read-concurrency contract), on a summary left unfinalized.
func TestConcurrentQueriesAfterInsertion(t *testing.T) {
	s := MustNew(smallConfig())
	st := denseStream(4000, 60, 40000, 51)
	for _, e := range st {
		s.Insert(e)
	}
	want := make([]int64, 60)
	for v := range want {
		want[v] = s.VertexOut(uint64(v), 0, 40000)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 0; v < 60; v++ {
				if got := s.VertexOut(uint64(v), 0, 40000); got != want[v] {
					select {
					case errs <- "concurrent VertexOut diverged":
					default:
					}
					return
				}
				lo := int64(v * 500)
				_ = s.EdgeWeight(uint64(v), uint64((v+1)%60), lo, lo+8000)
				_ = s.VertexIn(uint64(v), lo, lo+9000)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
