package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"higgs/internal/httpapi"
	"higgs/internal/ingest"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerShards(t, 4)
}

func newTestServerShards(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	return openTestServer(t, shards, Options{})
}

// openTestServer serves a fresh summary of the given shard count, opened
// with opts, until the test ends.
func openTestServer(t *testing.T, shards int, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serveSummary(t, sum, opts)
}

func serveSummary(t *testing.T, sum *shard.Summary, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := Open(sum, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close() // stop the pipeline's committer goroutines
	})
	return srv, ts
}

// openTestWAL opens the write-ahead log in dir, closed when the test ends.
func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func seed(t *testing.T, base string) {
	t.Helper()
	resp := post(t, base+"/v1/insert",
		`[{"s":1,"d":2,"w":3,"t":10},{"s":1,"d":2,"w":4,"t":20},{"s":2,"d":3,"w":5,"t":30}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	if got := decode[map[string]int](t, resp); got["inserted"] != 3 {
		t.Fatalf("inserted = %v", got)
	}
}

func TestInsertAndEdgeQuery(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":15}`); got != 3 {
		t.Fatalf("weight = %v, want 3", got)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("weight = %v, want 7", got)
	}
}

func TestVertexQuery(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	if got := ask(t, ts.URL, `{"kind":"vertex_out","v":1,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("out = %v, want 7", got)
	}
	if got := ask(t, ts.URL, `{"kind":"vertex_in","v":3,"ts":0,"te":100}`); got != 5 {
		t.Fatalf("in = %v, want 5", got)
	}
	if got := ask(t, ts.URL, `{"kind":"vertex_out","v":2,"ts":0,"te":100}`); got != 5 {
		t.Fatalf("out of 2 = %v, want 5", got)
	}
}

func TestPathAndSubgraph(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	if got := ask(t, ts.URL, `{"kind":"path","path":[1,2,3],"ts":0,"te":100}`); got != 12 {
		t.Fatalf("path = %v, want 12", got)
	}
	if got := ask(t, ts.URL, `{"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":100}`); got != 12 {
		t.Fatalf("subgraph = %v, want 12", got)
	}
}

func TestDelete(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	resp := post(t, ts.URL+"/v1/delete", `{"s":1,"d":2,"w":3,"t":10}`)
	if got := decode[map[string]bool](t, resp); !got["deleted"] {
		t.Fatalf("delete = %v", got)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 4 {
		t.Fatalf("after delete = %v, want 4", got)
	}
	// Deleting something that was never inserted reports false.
	resp = post(t, ts.URL+"/v1/delete", `{"s":9,"d":9,"w":1,"t":10}`)
	if got := decode[map[string]bool](t, resp); got["deleted"] {
		t.Fatalf("phantom delete = %v", got)
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	resp := get(t, ts.URL+"/v1/stats")
	st := decode[shard.Stats](t, resp)
	if st.Total.Items != 3 {
		t.Fatalf("stats items = %d", st.Total.Items)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards = %d, per-shard = %d", st.Shards, len(st.PerShard))
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	_, ts1 := newTestServer(t)
	seed(t, ts1.URL)
	resp := get(t, ts1.URL+"/v1/snapshot")
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty snapshot")
	}

	_, ts2 := newTestServer(t)
	resp2, err := http.Post(ts2.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("snapshot upload status %d: %s", resp2.StatusCode, body)
	}
	resp2.Body.Close()
	if got := ask(t, ts2.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("restored weight = %v, want 7", got)
	}
}

// TestSnapshotUploadRejectsMisplacedEntry: a snapshot that is well formed
// but for one entry moved off first fit — here the only entry of a one-leaf
// summary, its index pair flipped from (0, 0) to (0, 1), which puts the empty
// bucket before it on its walk — answers 400, and the served summary stays.
// matrix.EdgeSum stops at the first candidate bucket with room, so loading
// such an entry would be an under-count waiting for a probe.
func TestSnapshotUploadRejectsMisplacedEntry(t *testing.T) {
	_, donor := newTestServerShards(t, 1)
	if got := decode[map[string]int](t, post(t, donor.URL+"/v1/insert", `[{"s":1,"d":2,"w":3,"t":10}]`)); got["inserted"] != 1 {
		t.Fatalf("inserted = %v", got)
	}
	resp := get(t, donor.URL+"/v1/snapshot")
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The blob ends with the leaf's one entry and three empty counts:
	// … weight 3 (zigzag 06), index pair 00, 0 spilled, 0 overflow blocks.
	tail := len(blob) - 4
	if !bytes.Equal(blob[tail:], []byte{0x06, 0x00, 0x00, 0x00}) {
		t.Fatalf("snapshot ends % x: the layout this test edits has moved", blob[tail:])
	}
	blob[tail+1] = 0x01

	_, ts := newTestServer(t)
	seed(t, ts.URL)
	up, err := http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(up.Body)
	up.Body.Close()
	if up.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "sits behind a non-full candidate bucket") {
		t.Fatalf("upload answered %d %s, want 400 naming the misplaced slot", up.StatusCode, body)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("weight after the refused upload = %v, want the served summary's 7", got)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/v1/insert", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/insert", `{"not":"an array"}`, http.StatusBadRequest},
		{"POST", "/v1/insert", `garbage`, http.StatusBadRequest},
		{"POST", "/v1/snapshot", "not a snapshot", http.StatusBadRequest},
		{"PUT", "/v1/snapshot", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/delete", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
}

// TestInvertedRangeRejected pins the error message and checks the
// boundary: ts == te is a valid (single-instant) range.
func TestInvertedRangeRejected(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	got := postBatch(t, ts.URL, `[{"kind":"edge","s":1,"d":2,"ts":20,"te":10}]`)
	if len(got) != 1 || got[0].Weight != nil || !strings.Contains(got[0].Error, "inverted time range") {
		t.Fatalf("inverted range answered %+v, want an inverted time range error", got)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":10,"te":10}`); got != 3 {
		t.Fatalf("ts == te weight = %v, want 3", got)
	}
}

// TestShardedSnapshotRoundTripOverHTTP: a snapshot downloaded from an
// 8-shard server restores into a server with a different shard count (the
// upload replaces the whole summary, shard framing included).
func TestShardedSnapshotRoundTripOverHTTP(t *testing.T) {
	_, ts1 := newTestServerShards(t, 8)
	seed(t, ts1.URL)
	resp := get(t, ts1.URL+"/v1/snapshot")
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServerShards(t, 2)
	resp2, err := http.Post(ts2.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	got := decode[map[string]any](t, resp2)
	if got["shards"] != float64(8) || got["items"] != float64(3) {
		t.Fatalf("snapshot upload response = %v", got)
	}
	if got := ask(t, ts2.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("restored weight = %v, want 7", got)
	}
	st := decode[shard.Stats](t, get(t, ts2.URL+"/v1/stats"))
	if st.Shards != 8 {
		t.Fatalf("restored shard count = %d, want 8", st.Shards)
	}
}

// TestConcurrentInsertAndQuery drives writers and readers through the HTTP
// layer simultaneously — with per-shard locking there is no global mutex
// serializing them (run with -race).
func TestConcurrentInsertAndQuery(t *testing.T) {
	_, ts := newTestServerShards(t, 8)
	const writers, batches = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var sb strings.Builder
				sb.WriteByte('[')
				for i := 0; i < 8; i++ {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, `{"s":%d,"d":%d,"w":1,"t":%d}`, w*1000+b*8+i, i, b*10)
				}
				sb.WriteByte(']')
				resp, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader(sb.String()))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("insert status %d", resp.StatusCode)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				resp, err := http.Post(ts.URL+"/v2/query", "application/json",
					strings.NewReader(fmt.Sprintf(`[{"kind":"vertex_in","v":%d,"ts":0,"te":1000}]`, b%8)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp := get(t, ts.URL+"/v1/stats")
	if st := decode[shard.Stats](t, resp); st.Total.Items != writers*batches*8 {
		t.Fatalf("items = %d, want %d", st.Total.Items, writers*batches*8)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			resp, err := http.Post(ts.URL+"/v2/query", "application/json",
				strings.NewReader(fmt.Sprintf(`[{"kind":"edge","s":1,"d":2,"ts":0,"te":%d}]`, 100+i)))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// newAsyncTestServer builds a server over a pipeline with the given queue
// depth and commit interval.
func newAsyncTestServer(t *testing.T, shards int, icfg ingest.Config) (*Server, *httptest.Server) {
	t.Helper()
	return openTestServer(t, shards, Options{Ingest: icfg})
}

// TestIngestAcceptedThenFlushVisible: async writes are 202-accepted, and a
// /v1/flush barrier makes every previously accepted edge visible to
// queries.
func TestIngestAcceptedThenFlushVisible(t *testing.T) {
	_, ts := newAsyncTestServer(t, 4, ingest.Config{CommitInterval: time.Hour})
	resp := post(t, ts.URL+"/v1/ingest",
		`[{"s":1,"d":2,"w":3,"t":10},{"s":1,"d":2,"w":4,"t":20},{"s":2,"d":3,"w":5,"t":30}]`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	if got := decode[map[string]int](t, resp); got["accepted"] != 3 {
		t.Fatalf("accepted = %v", got)
	}
	// With a 1h commit interval nothing is applied yet; the flush barrier
	// must force the commit rather than wait the interval out.
	resp = post(t, ts.URL+"/v1/flush", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	if got := decode[map[string]int64](t, resp); got["items"] != 3 {
		t.Fatalf("flush items = %v, want 3", got)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("weight after flush = %v, want 7", got)
	}
}

// TestIngestBackpressure429: a batch that cannot fit behind an existing
// backlog is rejected whole with 429 + Retry-After, and a later flush
// shows the rejected batch was not partially applied.
func TestIngestBackpressure429(t *testing.T) {
	_, ts := newAsyncTestServer(t, 1, ingest.Config{QueueDepth: 4, CommitInterval: time.Hour})
	// One shard, 1h window: the first batch parks 2 edges in the queue
	// (the committer may or may not have drained them yet), so keep
	// posting until the backlog forces a rejection.
	var accepted int
	var saw429 bool
	for i := 0; i < 12 && !saw429; i++ {
		body := fmt.Sprintf(`[{"s":1,"d":2,"w":1,"t":%d},{"s":2,"d":3,"w":1,"t":%d},{"s":3,"d":4,"w":1,"t":%d}]`,
			100+i, 100+i, 100+i)
		resp := post(t, ts.URL+"/v1/ingest", body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted += 3
		case http.StatusTooManyRequests:
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatalf("never saw 429 after %d accepted edges with queue depth 4", accepted)
	}
	resp := post(t, ts.URL+"/v1/flush", "")
	if got := decode[map[string]int64](t, resp); got["items"] != int64(accepted) {
		t.Fatalf("items after flush = %v, want exactly the %d accepted (429 must apply nothing)", got, accepted)
	}
}

// TestIngestBadRequests: method and body validation mirror /v1/insert. A
// body is one JSON array and whitespace: anything after it sinks the
// request, the array before it included (regression: the trailing bytes were
// silently dropped and the first array ingested).
func TestIngestBadRequests(t *testing.T) {
	_, ts := newAsyncTestServer(t, 2, ingest.Config{})
	const edge = `{"s":1,"d":2,"w":1,"t":100}`
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/v1/ingest", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/ingest", `{"not":"an array"}`, http.StatusBadRequest},
		{"GET", "/v1/flush", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/ingest", `[` + edge + `][` + edge + `]`, http.StatusBadRequest},
		{"POST", "/v1/ingest", `[` + edge + `] trailing`, http.StatusBadRequest},
		{"POST", "/v1/ingest", `[{"S":1,"d":2,"w":1,"t":100}]]`, http.StatusBadRequest}, // the fallback's check, not the scanner's
		{"POST", "/v1/insert", `[` + edge + `][` + edge + `]`, http.StatusBadRequest},
		{"POST", "/v1/delete", edge + edge, http.StatusBadRequest},
		{"POST", "/v2/query", `[{"kind":"subgraph","edges":[[1,2]],"ts":0,"te":200}]{}`, http.StatusBadRequest},
		{"POST", "/v1/ingest", " [" + edge + "] \r\n\t", http.StatusAccepted},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s %s: status %d, want %d", c.method, c.path, c.body, resp.StatusCode, c.wantStatus)
		}
	}
	if got := decode[map[string]int64](t, post(t, ts.URL+"/v1/flush", "")); got["items"] != 1 {
		t.Errorf("after one accepted edge and six rejected bodies: %v items, want 1", got["items"])
	}
}

// TestConcurrentIngestFlushQuery drives concurrent async posters, flushes,
// and queries through the HTTP layer (run with -race), then checks the
// flush barrier accounted for every accepted edge.
func TestConcurrentIngestFlushQuery(t *testing.T) {
	_, ts := newAsyncTestServer(t, 8, ingest.Config{QueueDepth: 64, CommitInterval: 500 * time.Microsecond})
	const posters, batches = 4, 30
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				body := fmt.Sprintf(`[{"s":%d,"d":%d,"w":1,"t":%d},{"s":%d,"d":%d,"w":1,"t":%d}]`,
					p*1000+b, b, b*10, p*1000+b+500, b, b*10)
				for {
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusAccepted {
						accepted.Add(2)
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("ingest status %d", code)
						return
					}
				}
			}
		}(p)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				resp := post(t, ts.URL+"/v1/flush", "")
				resp.Body.Close()
				postBatch(t, ts.URL, fmt.Sprintf(`[{"kind":"vertex_in","v":%d,"ts":0,"te":1000}]`, b))
			}
		}(p)
	}
	wg.Wait()
	resp := post(t, ts.URL+"/v1/flush", "")
	if got := decode[map[string]int64](t, resp); got["items"] != accepted.Load() {
		t.Fatalf("items = %v, want %d accepted", got, accepted.Load())
	}
}

// v2Result mirrors the /v2/query per-item answer shape.
type v2Result struct {
	Weight *int64 `json:"weight"`
	Error  string `json:"error"`
	Code   string `json:"code"`
}

func postBatch(t *testing.T, base, body string) []v2Result {
	t.Helper()
	resp := post(t, base+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("/v2/query status %d: %s", resp.StatusCode, b)
	}
	return decode[[]v2Result](t, resp)
}

// ask posts one query item to /v2/query and returns its weight, failing the
// test on any error, envelope- or item-level.
func ask(t *testing.T, base, item string) int64 {
	t.Helper()
	got := postBatch(t, base, "["+item+"]")
	if len(got) != 1 || got[0].Error != "" || got[0].Weight == nil {
		t.Fatalf("%s: answered %+v, want one weight", item, got)
	}
	return *got[0].Weight
}

// TestV2QueryBatch: one POST answers all five query kinds.
func TestV2QueryBatch(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	got := postBatch(t, ts.URL, `[
		{"kind":"edge","s":1,"d":2,"ts":0,"te":100},
		{"kind":"edge","s":1,"d":2,"ts":0,"te":15},
		{"kind":"vertex_out","v":1,"ts":0,"te":100},
		{"kind":"vertex_in","v":2,"ts":0,"te":100},
		{"kind":"path","path":[1,2,3],"ts":0,"te":100},
		{"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":100}
	]`)
	want := []int64{7, 3, 7, 7, 12, 12}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Error != "" {
			t.Fatalf("item %d: unexpected error %q", i, got[i].Error)
		}
		if got[i].Weight == nil || *got[i].Weight != w {
			t.Fatalf("item %d: weight = %v, want %d", i, got[i].Weight, w)
		}
	}
}

// TestV2QueryPerItemErrors: item-level problems land in their own slot and
// leave neighbors intact; the envelope still answers 200.
func TestV2QueryPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	got := postBatch(t, ts.URL, `[
		{"kind":"edge","s":1,"d":2,"ts":0,"te":100},
		{"kind":"edge","s":1,"d":2,"ts":100,"te":50},
		{"kind":"banana","ts":0,"te":1},
		{"kind":"path","path":[1],"ts":0,"te":1},
		{"not even":"a query"},
		{"kind":"vertex_out","v":1,"ts":0,"te":100}
	]`)
	if len(got) != 6 {
		t.Fatalf("got %d results, want 6", len(got))
	}
	if got[0].Error != "" || got[0].Weight == nil || *got[0].Weight != 7 {
		t.Fatalf("valid item 0 polluted: %+v", got[0])
	}
	for i, wantErr := range map[int]string{
		1: "inverted time range",
		2: "unknown query kind",
		3: "≥ 2 vertices",
		4: "unknown field",
	} {
		if got[i].Weight != nil || !strings.Contains(got[i].Error, wantErr) {
			t.Fatalf("item %d: %+v, want error containing %q", i, got[i], wantErr)
		}
	}
	if got[5].Error != "" || got[5].Weight == nil || *got[5].Weight != 7 {
		t.Fatalf("valid item 5 polluted: %+v", got[5])
	}
}

// TestV2QueryEnvelope: malformed envelopes are the only 400s; an empty
// batch is a valid envelope.
func TestV2QueryEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		body       string
		wantStatus int
	}{
		{`[]`, http.StatusOK},
		{`{"kind":"edge"}`, http.StatusBadRequest}, // object, not array
		{`garbage`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
		{`[] trailing garbage`, http.StatusBadRequest},
		{`[{"kind":"edge","s":1,"d":2,"ts":0,"te":1}][]`, http.StatusBadRequest},
		// An item of the wrong shape keeps its slot; bytes that are not
		// JSON, or a body that stops short, sink the envelope behind it.
		{`[0,{"kind":"banana"},{"nope":1}]`, http.StatusOK},
		{`[0,{"kind":"banana"},tru]`, http.StatusBadRequest},
		{`[0 0]`, http.StatusBadRequest},
		{`[{"kind":"edge","s":1`, http.StatusBadRequest},
		{`[{"kind":"edge","s":1,"d":2,"ts":0,"te":1}`, http.StatusBadRequest},
	} {
		resp := post(t, ts.URL+"/v2/query", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("body %q: status %d, want %d", c.body, resp.StatusCode, c.wantStatus)
		}
	}
	resp := get(t, ts.URL+"/v2/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/query status %d, want 405", resp.StatusCode)
	}
}

// TestInvertedRangeEveryEndpoint: te < ts is a per-item inverted_window
// error for every weight kind on /v2/query.
func TestInvertedRangeEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	for _, item := range []string{
		`{"kind":"edge","s":1,"d":2,"ts":100,"te":50}`,
		`{"kind":"vertex_out","v":1,"ts":100,"te":50}`,
		`{"kind":"vertex_in","v":1,"ts":100,"te":50}`,
		`{"kind":"path","path":[1,2],"ts":100,"te":50}`,
		`{"kind":"subgraph","edges":[[1,2]],"ts":100,"te":50}`,
	} {
		got := postBatch(t, ts.URL, "["+item+"]")
		if len(got) != 1 || got[0].Weight != nil || !strings.Contains(got[0].Error, "inverted time range") ||
			got[0].Code != "inverted_window" {
			t.Errorf("v2 item %s: %+v, want inverted_window error", item, got)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServerShards(t, 3)
	resp := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	got := decode[map[string]any](t, resp)
	if got["status"] != "ok" || got["shards"] != float64(3) {
		t.Fatalf("healthz = %v", got)
	}
	resp = post(t, ts.URL+"/healthz", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d, want 405", resp.StatusCode)
	}
}

// TestV2QueryConcurrentWithIngest exercises batch queries racing the
// group-commit pipeline over HTTP (run with -race).
func TestV2QueryConcurrentWithIngest(t *testing.T) {
	_, ts := newTestServerShards(t, 4)
	const writers, rounds = 3, 20
	var wg sync.WaitGroup
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < rounds; b++ {
				body := fmt.Sprintf(`[{"s":%d,"d":%d,"w":1,"t":%d}]`, p*100+b, b, b*10)
				for {
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK || code == http.StatusAccepted {
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("ingest status %d", code)
						return
					}
				}
			}
		}(p)
	}
	for r := 0; r < rounds; r++ {
		got := postBatch(t, ts.URL, fmt.Sprintf(`[
			{"kind":"vertex_in","v":%d,"ts":0,"te":1000},
			{"kind":"edge","s":%d,"d":%d,"ts":0,"te":1000},
			{"kind":"path","path":[%d,%d,%d],"ts":0,"te":1000}
		]`, r, r+100, r, r, r+1, r+2))
		for i, res := range got {
			if res.Error != "" {
				t.Errorf("round %d item %d: %s", r, i, res.Error)
			}
		}
	}
	wg.Wait()
}

// TestV2QueryMissingKind: an item without "kind" is a per-item error, not
// a silently-answered edge query (the zero Kind is invalid by design).
func TestV2QueryMissingKind(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	got := postBatch(t, ts.URL, `[{"v":2,"ts":0,"te":100},{"kind":"vertex_in","v":2,"ts":0,"te":100}]`)
	if got[0].Weight != nil || !strings.Contains(got[0].Error, "missing query kind") {
		t.Fatalf("missing-kind item: %+v, want missing query kind error", got[0])
	}
	if got[1].Error != "" || got[1].Weight == nil || *got[1].Weight != 7 {
		t.Fatalf("valid neighbor polluted: %+v", got[1])
	}
}

// TestV2QueryBodyTooLarge: the envelope byte size is bounded while
// streaming. Items here are large (~1 KiB paths) so the byte cap trips
// well before the item cap.
func TestV2QueryBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	item := `{"kind":"path","path":[` + strings.Repeat("1,", 500) + `1],"ts":0,"te":1},`
	huge := "[" + strings.Repeat(item, 9000)
	huge = huge[:len(huge)-1] + "]"
	if len(huge) <= 8<<20 {
		t.Fatalf("test body not oversized: %d bytes", len(huge))
	}
	resp := post(t, ts.URL+"/v2/query", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

// TestV2QueryProbeBudget: a small body can plan a huge probe count via
// vertex_in fan-out (one probe per shard per item); over-budget envelopes
// are rejected whole.
func TestV2QueryProbeBudget(t *testing.T) {
	_, ts := newTestServerShards(t, 64)
	items := make([]string, 32768) // 32768 × 64 shards = 2M probes > 1M budget
	for i := range items {
		items[i] = fmt.Sprintf(`{"kind":"vertex_in","v":%d,"ts":0,"te":1}`, i)
	}
	resp := post(t, ts.URL+"/v2/query", "["+strings.Join(items, ",")+"]")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "probes") {
		t.Fatalf("status %d body %q, want 400 + probe budget error", resp.StatusCode, body)
	}
	// The same items in a smaller batch stay well under budget.
	got := postBatch(t, ts.URL, "["+strings.Join(items[:64], ",")+"]")
	for i, r := range got {
		if r.Error != "" || r.Weight == nil {
			t.Fatalf("item %d of in-budget batch: %+v", i, r)
		}
	}
}

// TestV2QueryItemCapStreams: the item cap binds while streaming the
// envelope, and invalid items count zero probes — a batch of inverted
// windows can never trip the probe budget, only per-item errors.
func TestV2QueryItemCapStreams(t *testing.T) {
	_, ts := newTestServer(t)
	huge := "[" + strings.Repeat("0,", 100_000) + "0]" // tiny items over the 65536 cap
	resp := post(t, ts.URL+"/v2/query", huge)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit of 65536") {
		t.Fatalf("status %d body %q, want 400 + item limit", resp.StatusCode, body)
	}

	_, ts64 := newTestServerShards(t, 64)
	items := make([]string, 32768)
	for i := range items {
		items[i] = `{"kind":"vertex_in","v":1,"ts":9,"te":0}` // inverted: plans 0 probes
	}
	got := postBatch(t, ts64.URL, "["+strings.Join(items, ",")+"]")
	if len(got) != len(items) {
		t.Fatalf("got %d results, want %d", len(got), len(items))
	}
	for i, r := range got {
		if r.Weight != nil || !strings.Contains(r.Error, "inverted time range") {
			t.Fatalf("item %d: %+v, want per-item inverted range error", i, r)
		}
	}
}

func TestHealthzDurability(t *testing.T) {
	_, ts := newTestServerShards(t, 2)
	// Without durability configured, /healthz reports wal=false.
	got := decode[map[string]any](t, get(t, ts.URL+"/healthz"))
	d, ok := got["durability"].(map[string]any)
	if !ok || d["wal"] != false {
		t.Fatalf("durability without WAL = %v", got["durability"])
	}
	_, ts = openTestServer(t, 2, Options{Durability: func() ingest.DurabilityStatus {
		return ingest.DurabilityStatus{WAL: true, AppendedSeq: 42, SyncedSeq: 40, Segments: 2, SnapshotSeq: 17}
	}})
	got = decode[map[string]any](t, get(t, ts.URL+"/healthz"))
	d, ok = got["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability missing: %v", got)
	}
	if d["wal"] != true || d["appended_seq"] != float64(42) ||
		d["synced_seq"] != float64(40) || d["segments"] != float64(2) ||
		d["snapshot_seq"] != float64(17) {
		t.Fatalf("durability = %v", d)
	}
}

// TestExpireEndpoint: POST /v1/expire drops everything wholly before the
// cutoff through the pipeline's sequenced expire and reports the reclaimed
// leaf count.
func TestExpireEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// A stream long enough that whole subtrees close before the cutoff.
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 4096; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"s":%d,"d":%d,"w":1,"t":%d}`, i%64, i%64+1, i)
	}
	sb.WriteByte(']')
	resp := post(t, ts.URL+"/v1/insert", sb.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}

	resp = post(t, ts.URL+"/v1/expire", `{"cutoff":5000}`)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("expire status %d: %s", resp.StatusCode, b)
	}
	got := decode[map[string]int64](t, resp)
	if got["dropped"] <= 0 {
		t.Fatalf("expire dropped %d leaves, want > 0", got["dropped"])
	}
	// Idempotent at the same cutoff.
	if again := decode[map[string]int64](t, post(t, ts.URL+"/v1/expire", `{"cutoff":5000}`)); again["dropped"] != 0 {
		t.Fatalf("second expire dropped %d, want 0", again["dropped"])
	}
	// The live window keeps answering.
	if w := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":4000,"te":5000}`); w <= 0 {
		t.Fatalf("live-window weight = %d after expire, want > 0", w)
	}
}

// TestExpireBadRequests: malformed bodies 400, wrong method 405.
func TestExpireBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{``, `garbage`, `{"cutoff":"ten"}`, `{"cutof":10}`,
		`{"cutoff":5}{"cutoff":99999}`, `{"cutoff":5} trailing`} {
		resp := post(t, ts.URL+"/v1/expire", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("expire body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp := get(t, ts.URL+"/v1/expire")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/expire status %d, want 405", resp.StatusCode)
	}
}

// TestExpireWhileClosed: an expire racing shutdown answers 503, matching
// /v1/ingest's contract.
func TestExpireWhileClosed(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Close()
	resp := post(t, ts.URL+"/v1/expire", `{"cutoff":10}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expire after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestV2QueryEmptySubgraph: an empty subgraph ({"edges":[]}) is rejected
// per item — it plans nothing and must not silently answer zero.
func TestV2QueryEmptySubgraph(t *testing.T) {
	_, ts := newTestServer(t)
	seed(t, ts.URL)
	got := postBatch(t, ts.URL, `[
		{"kind":"subgraph","edges":[[1,2]],"ts":0,"te":100},
		{"kind":"subgraph","edges":[],"ts":0,"te":100},
		{"kind":"subgraph","ts":0,"te":100}
	]`)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	if got[0].Error != "" || got[0].Weight == nil || *got[0].Weight != 7 {
		t.Fatalf("valid subgraph polluted: %+v", got[0])
	}
	for i := 1; i < 3; i++ {
		if got[i].Weight != nil || !strings.Contains(got[i].Error, "≥ 1 edge") {
			t.Fatalf("empty subgraph item %d: %+v, want per-item ≥ 1 edge error", i, got[i])
		}
	}
}

// TestHealthzRetention: /healthz reports the retention loop's state once
// installed.
func TestHealthzRetention(t *testing.T) {
	_, ts := newTestServerShards(t, 2)
	got := decode[map[string]any](t, get(t, ts.URL+"/healthz"))
	r, ok := got["retention"].(map[string]any)
	if !ok || r["enabled"] != false {
		t.Fatalf("retention without a loop = %v", got["retention"])
	}
	_, ts = openTestServer(t, 2, Options{Retention: func() ingest.RetentionStatus {
		return ingest.RetentionStatus{Enabled: true, WindowSeconds: 3600, IntervalSeconds: 60, Runs: 3, Dropped: 12, LastCutoff: 99, LastUnix: 1234}
	}})
	got = decode[map[string]any](t, get(t, ts.URL+"/healthz"))
	r, ok = got["retention"].(map[string]any)
	if !ok {
		t.Fatalf("retention missing: %v", got)
	}
	if r["enabled"] != true || r["window_seconds"] != float64(3600) ||
		r["interval_seconds"] != float64(60) || r["runs"] != float64(3) ||
		r["dropped"] != float64(12) || r["last_cutoff"] != float64(99) ||
		r["last_unix"] != float64(1234) {
		t.Fatalf("retention = %v", r)
	}
}

func TestSnapshotUploadRejectedWhenWALOwnsState(t *testing.T) {
	_, ts := openTestServer(t, 2, Options{Ingest: ingest.Config{WAL: openTestWAL(t, t.TempDir())}})
	// GET (download) stays available.
	resp := get(t, ts.URL+"/v1/snapshot")
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot download: status %d, err %v", resp.StatusCode, err)
	}
	// POST (upload) is rejected: the WAL owns the durable state.
	resp, err = http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot upload with WAL: status %d, want 409", resp.StatusCode)
	}
}

// TestWriteBodyCaps: every write endpoint rejects an oversized body with
// 413 instead of buffering it (/v2/query's cap has its own test above).
func TestWriteBodyCaps(t *testing.T) {
	_, ts := newTestServer(t)
	edge := `{"s":1,"d":2,"w":1,"t":100},`
	huge := "[" + strings.Repeat(edge, (8<<20)/len(edge)+2)
	huge = huge[:len(huge)-1] + "]"
	if len(huge) <= 8<<20 {
		t.Fatalf("test body not oversized: %d bytes", len(huge))
	}
	for _, path := range []string{"/v1/insert", "/v1/ingest", "/v1/expire", "/v1/delete"} {
		resp := post(t, ts.URL+path, huge)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body status %d, want 413", path, resp.StatusCode)
		}
	}
	// The endpoints still work after rejecting an oversized body.
	resp := post(t, ts.URL+"/v1/ingest", `[{"s":1,"d":2,"w":1,"t":100}]`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after cap status %d", resp.StatusCode)
	}
}

// TestHealthzMemory: /healthz reports the runtime heap counters the
// pooling work is judged by.
func TestHealthzMemory(t *testing.T) {
	_, ts := newTestServer(t)
	resp := get(t, ts.URL+"/healthz")
	got := decode[map[string]any](t, resp)
	mem, ok := got["memory"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing memory section: %v", got)
	}
	for _, key := range []string{"heap_alloc_bytes", "heap_inuse_bytes", "total_alloc_bytes", "mallocs", "num_gc"} {
		if _, ok := mem[key]; !ok {
			t.Fatalf("memory section missing %q: %v", key, mem)
		}
	}
	if mem["total_alloc_bytes"].(float64) <= 0 || mem["mallocs"].(float64) <= 0 {
		t.Fatalf("memory counters implausibly zero: %v", mem)
	}
}

// TestInsertIsLoggedAndVisible: the endpoint decides when a batch is
// visible, with and without a log. On an idle server — where a commit
// window no test outlives holds every queue — a 600-edge /v1/ingest answers
// 202 with nothing visible until /v1/flush, and /v1/insert of the same
// batch, being /v1/ingest plus a flush, answers 200 with it visible. With a
// WAL both batches are in the log: replaying the log alone into a fresh
// summary — what crash recovery and a follower both do — yields them.
// Before /v1/insert went through the pipeline it applied straight to the
// summary, so a crash lost its edges and followers never saw them.
func TestInsertIsLoggedAndVisible(t *testing.T) {
	const n = 600
	var body strings.Builder
	for i := 0; i < n; i++ {
		sep := ','
		if i == 0 {
			sep = '['
		}
		fmt.Fprintf(&body, `%c{"s":%d,"d":%d,"w":2,"t":10}`, sep, i%40, i%40+1)
	}
	body.WriteByte(']')
	edge12 := func(ts *httptest.Server) int64 {
		return ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":1000}`)
	}
	const once = 2 * n / 40 // edge (1,2) recurs every 40 edges with weight 2

	for _, withWAL := range []bool{false, true} {
		cfg := shard.DefaultConfig()
		sum, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		icfg := ingest.Config{CommitInterval: time.Hour}
		dir := t.TempDir()
		if withWAL {
			if icfg.WAL, err = wal.Open(wal.Config{Dir: dir}); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := NewWithIngest(sum, icfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())

		resp := post(t, ts.URL+"/v1/ingest", body.String())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("wal=%v: /v1/ingest of %d edges on an idle server = %d, want 202", withWAL, n, resp.StatusCode)
		}
		if got := decode[map[string]int](t, resp); got["accepted"] != n {
			t.Errorf("wal=%v: accepted = %v, want %d", withWAL, got, n)
		}
		if got := edge12(ts); got != 0 {
			t.Errorf("wal=%v: weight before the flush = %d, want 0 (the batch is queued)", withWAL, got)
		}
		post(t, ts.URL+"/v1/flush", "").Body.Close()
		if got := edge12(ts); got != once {
			t.Errorf("wal=%v: weight after /v1/flush = %d, want %d", withWAL, got, once)
		}
		resp = post(t, ts.URL+"/v1/insert", body.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wal=%v: /v1/insert = %d, want 200", withWAL, resp.StatusCode)
		}
		if got := decode[map[string]int](t, resp); got["inserted"] != n {
			t.Errorf("wal=%v: inserted = %v, want %d", withWAL, got, n)
		}
		if got := edge12(ts); got != 2*once {
			t.Errorf("wal=%v: weight right after /v1/insert = %d, want %d", withWAL, got, 2*once)
		}
		ts.Close()
		srv.Close()
		if !withWAL {
			continue
		}
		if err := icfg.WAL.Close(); err != nil {
			t.Fatal(err)
		}

		log, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := ingest.Recover(recovered, log)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != 2*n || recovered.EdgeWeight(1, 2, 0, 1000) != 2*once {
			t.Errorf("recovery from the log alone replayed %d edges, weight %d; want %d edges, weight %d",
				replayed, recovered.EdgeWeight(1, 2, 0, 1000), 2*n, 2*once)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertMapsPipelineErrors: /v1/insert surfaces backpressure and
// shutdown exactly as /v1/ingest does.
func TestInsertMapsPipelineErrors(t *testing.T) {
	srv, ts := newAsyncTestServer(t, 1, ingest.Config{QueueDepth: 4, CommitInterval: time.Hour})
	// Park three edges behind the 1h commit window — short of the depth
	// that would cut the window short — then ask for room for two more.
	resp := post(t, ts.URL+"/v1/ingest", `[{"s":1,"d":2,"w":1,"t":1},{"s":1,"d":2,"w":1,"t":2},{"s":1,"d":2,"w":1,"t":3}]`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/v1/insert", `[{"s":1,"d":2,"w":1,"t":4},{"s":1,"d":2,"w":1,"t":5}]`)
	checkEnvelope(t, "insert into a full queue", resp, http.StatusTooManyRequests, httpapi.CodeIngestBackpressure)
	srv.Close()
	resp = post(t, ts.URL+"/v1/insert", `[{"s":1,"d":2,"w":1,"t":4}]`)
	checkEnvelope(t, "insert after Close", resp, http.StatusServiceUnavailable, httpapi.CodeShuttingDown)
}
