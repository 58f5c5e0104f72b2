package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/httpapi"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// summaryWithWeight builds a summary whose edge 1→2 answers exactly w —
// one generation of the swap race below.
func summaryWithWeight(t *testing.T, w int64) *shard.Summary {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = 2
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum.InsertBatch([]stream.Edge{{S: 1, D: 2, W: w, T: 10}})
	return sum
}

// TestNoStaleCacheAcrossReplaceSummary is the server-level -race
// invalidation test: cached batch queries hammer a replica while
// ReplaceSummary swaps in summaries with distinct known answers, and
// every served answer must belong to a generation that was legally
// observable in the reader's fence window — a stale cache would leak an
// older generation's answer past a swap.
//
// Generation g's summary answers g+1; a counter published after each
// swap brackets the legal window: a reader observing counter b before the
// query and a after it must see some generation in [b, a+1] (the writer
// may have swapped — but not yet published — generation a+1).
func TestNoStaleCacheAcrossReplaceSummary(t *testing.T) {
	const swaps = 60
	srv, err := Open(summaryWithWeight(t, 1), Options{Replica: true, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var gen atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				b := gen.Load()
				w := queryEdgeWeight(srv)
				a := gen.Load()
				hi := a + 1
				if hi > swaps {
					hi = swaps
				}
				ok := false
				for j := b; j <= hi; j++ {
					if w == j+1 {
						ok = true
						break
					}
				}
				if !ok {
					select {
					case fail <- fmt.Sprintf("stale cached answer %d outside generations [%d..%d]", w, b+1, hi+1):
					default:
					}
					return
				}
			}
		}()
	}

	for i := int64(1); i <= swaps; i++ {
		if err := srv.ReplaceSummary(summaryWithWeight(t, i+1)); err != nil {
			t.Fatal(err)
		}
		gen.Store(i)
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Quiesced: the cache must serve the final generation, and /healthz
	// must show the post-swap cache was rebuilt (not carried over).
	if w := queryEdgeWeight(srv); w != swaps+1 {
		t.Fatalf("final cached answer %d, want %d", w, swaps+1)
	}
	st := srv.st.Load()
	if st.cache == nil {
		t.Fatal("cache missing after swaps")
	}
	if cs := st.cache.Stats(); cs.Hits+cs.Misses == 0 {
		t.Fatal("post-swap cache saw no traffic")
	}
}

// queryEdgeWeight answers edge 1→2 through the server's current read
// prober — the cache when enabled, the same seam every query endpoint
// runs — without HTTP overhead distorting the race.
func queryEdgeWeight(srv *Server) int64 {
	return query.Do(srv.st.Load().read, query.NewEdge(1, 2, 0, 100)).Weight
}

// TestCacheOverHTTPSwap drives the same swap race over real HTTP, the
// end-to-end surface a replica's clients use.
func TestCacheOverHTTPSwap(t *testing.T) {
	srv, ts := serveSummary(t, newSeededSummary(t, 2), Options{Replica: true, CacheBytes: 1 << 20})
	// Seeded summary: edge 1→2 = 7. Query twice (fill + hit), then swap
	// and require the new answer immediately.
	for i := 0; i < 2; i++ {
		if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
			t.Fatalf("pre-swap weight = %v, want 7", got)
		}
	}
	if err := srv.ReplaceSummary(summaryWithWeight(t, 41)); err != nil {
		t.Fatal(err)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 41 {
		t.Fatalf("post-swap weight = %v, want 41 (stale cache served)", got)
	}
}

// TestSetReadCacheValidates pins the budget guard rails: sub-minimum
// budgets are rejected, 0 disables cleanly.
func TestSetReadCacheValidates(t *testing.T) {
	srv, _ := newTestServerShards(t, 2)
	if err := srv.SetReadCache(1); err == nil {
		t.Fatal("accepted a 1-byte cache budget")
	}
	if err := srv.SetReadCache(1 << 20); err != nil {
		t.Fatal(err)
	}
	if srv.st.Load().cache == nil {
		t.Fatal("cache not installed")
	}
	if err := srv.SetReadCache(0); err != nil {
		t.Fatal(err)
	}
	if srv.st.Load().cache != nil {
		t.Fatal("cache not removed")
	}
}

// TestAdmissionShedsWith429 pins the HTTP mapping: a rate-limited client
// gets 429 with a Retry-After pacing hint, and recovery is possible (the
// healthy path still answers once admitted).
func TestAdmissionShedsWith429(t *testing.T) {
	ctrl, err := admit.New(admit.Config{Rate: 0.000001, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := openTestServer(t, 2, Options{Admission: ctrl})
	post(t, ts.URL+"/v1/insert", `[{"s":1,"d":2,"w":3,"t":10}]`)

	// Burst of 2 admits; the third request in the same instant sheds.
	for i := 0; i < 2; i++ {
		if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 3 {
			t.Fatalf("request %d: weight %d, want 3", i, got)
		}
	}
	resp := post(t, ts.URL+"/v2/query", `[{"kind":"edge","s":1,"d":2,"ts":0,"te":100}]`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "rate limit") {
		t.Fatalf("429 body %q does not name the rate limit", body)
	}

	// Writes and probes stay un-throttled.
	resp = post(t, ts.URL+"/v1/insert", `[{"s":5,"d":6,"w":1,"t":50}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write throttled: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = get(t, ts.URL+"/healthz")
	var health struct {
		Admission struct {
			Enabled     bool   `json:"enabled"`
			RateLimited uint64 `json:"rate_limited"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Admission.Enabled || health.Admission.RateLimited == 0 {
		t.Fatalf("admission healthz block = %+v", health.Admission)
	}
}

// TestAdmissionMetersAnalyticsCandidates: a heavy_hitters item costs the
// probes its filled candidates plan, so admission classes one with more
// candidates than HeavyProbes heavy, and a body of them whose candidates
// plan more than maxBatchProbes is refused whole.
func TestAdmissionMetersAnalyticsCandidates(t *testing.T) {
	ctrl, err := admit.New(admit.Config{HeavyProbes: 32})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := openTestServer(t, 4, Options{Admission: ctrl, Analytics: &analytics.Config{}})
	var sb strings.Builder
	sb.WriteString("[")
	for v := 0; v < 100; v++ { // 100 sources and destinations: 100 candidates each way
		if v > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"s":%d,"d":%d,"w":1,"t":%d}`, v, v+1000, v)
	}
	sb.WriteString("]")
	post(t, ts.URL+"/v1/insert", sb.String()).Body.Close()

	if got := postBatch(t, ts.URL, `[{"kind":"heavy_hitters","k":3}]`); len(got) != 1 || got[0].Error != "" {
		t.Fatalf("heavy_hitters = %+v", got)
	}
	if st := ctrl.Stats(); st.Heavy.Admitted != 1 || st.Cheap.Admitted != 0 {
		t.Fatalf("100-candidate heavy_hitters admitted cheap %d / heavy %d, want 0 / 1", st.Cheap.Admitted, st.Heavy.Admitted)
	}

	// 100 in-candidates × 4 shards = 400 probes an item: 2,622 items pass
	// the 2^20 budget, where counting each item as one probe would not.
	items := strings.TrimSuffix(strings.Repeat(`{"kind":"heavy_hitters","dir":"in"},`, 2622), ",")
	checkEnvelope(t, "filled candidates over budget", post(t, ts.URL+"/v2/query", "["+items+"]"),
		http.StatusBadRequest, httpapi.CodeProbeBudget)
}
