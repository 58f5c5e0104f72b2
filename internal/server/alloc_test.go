package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"higgs/internal/stream"
)

// TestIngestRequestAllocs pins the pooled-scratch contract of the write
// handler: the body is read into a pooled buffer (readBody/putBody), scanned
// into a pooled batchBuf that admitBatch must putBatch once Submit returns,
// and the answer is appended into the body's buffer. Drop either Put and
// every request rebuilds its buffer and regrows it; fall back to
// encoding/json (the parent decoded every body with it: 36 allocs for this
// request) and the decoder, its token buffer and the answer's map and
// encoder come back. What is left is the test's request and recorder, the
// response header, and the one allocation of Pipeline.Submit.
//
// The pin is the cheapest of many single requests, not an average: pools
// only ever add to a run — the collector empties them, and under -race
// sync.Pool drops a quarter of all Puts on purpose — while a missing Put is
// paid by every run.
func TestIngestRequestAllocs(t *testing.T) {
	srv, _ := openTestServer(t, 4, Options{})
	h := srv.Handler()
	edges := make([]stream.Edge, 64)
	for i := range edges {
		edges[i] = stream.Edge{S: uint64(i + 1), D: uint64(i + 2), W: 1, T: 10}
	}
	body, err := json.Marshal(edges)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	post := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", rd))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/ingest = %d: %s", rec.Code, rec.Body)
		}
	}
	// The count is process-wide, so it covers the committers' drains; the
	// flush between runs, outside the count, starts each from empty queues.
	least := testing.AllocsPerRun(1, post)
	for i := 0; i < 100; i++ {
		srv.Pipeline().Flush()
		least = min(least, testing.AllocsPerRun(1, post))
	}
	if least != 20 {
		t.Fatalf("one 64-edge /v1/ingest request = %v allocs at best, want 20: are the body and decode buffers still returned to their pools, and is the body still scanned rather than decoded?", least)
	}
}
