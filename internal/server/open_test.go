package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"higgs/internal/analytics"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

// heavyHitters asks /v2/query for the top-k out-direction heavy hitters.
func heavyHitters(t *testing.T, base string) []query.Entry {
	t.Helper()
	resp := post(t, base+"/v2/query", `[{"kind":"heavy_hitters","k":4}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heavy_hitters status %d", resp.StatusCode)
	}
	out := decode[[]struct {
		Top   []query.Entry `json:"top"`
		Error string        `json:"error"`
	}](t, resp)
	if len(out) != 1 || out[0].Error != "" {
		t.Fatalf("heavy_hitters answer = %+v", out)
	}
	return out[0].Top
}

// TestOpenReplaysWALIntoAnalytics: Open attaches the analytics engine
// before it replays the log, so the sketches of a server booted over
// un-snapshotted records count them exactly like live ones. (An engine
// attached after the replay would serve the recovered edges and rank
// nothing.)
func TestOpenReplaysWALIntoAnalytics(t *testing.T) {
	dir := t.TempDir()
	cfg := shard.DefaultConfig()
	cfg.Shards = 2

	// First life: three edges out of vertex 1 (weight 12) and one out of 2,
	// logged and never snapshotted.
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Open(sum, Options{Ingest: ingest.Config{WAL: log}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp := post(t, ts.URL+"/v1/insert",
		`[{"s":1,"d":2,"w":3,"t":10},{"s":1,"d":3,"w":4,"t":20},{"s":1,"d":2,"w":5,"t":30},{"s":2,"d":3,"w":1,"t":40}]`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	ts.Close()
	srv.Close()
	sum.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh summary, the same log, analytics on.
	fresh, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts = serveSummary(t, fresh, Options{
		Ingest:    ingest.Config{WAL: openTestWAL(t, dir)},
		Analytics: &analytics.Config{},
	})
	if srv.Replayed() != 4 {
		t.Fatalf("Replayed() = %d, want 4", srv.Replayed())
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 8 {
		t.Fatalf("recovered edge weight = %v, want 8", got)
	}
	top := heavyHitters(t, ts.URL)
	if len(top) != 2 || top[0].S != 1 || top[0].Cur != 12 || top[1].S != 2 || top[1].Cur != 1 {
		t.Fatalf("heavy_hitters after replay = %+v, want vertex 1 at 12 then vertex 2 at 1", top)
	}
}

// TestSnapshotUploadRebuildsCacheAndEngine: an uploaded snapshot replaces
// summary, pipeline, cache and engine in one swap. The cache must not
// answer from the old summary, and the engine must be a fresh one that
// observes the new summary — not the old engine, and not none.
func TestSnapshotUploadRebuildsCacheAndEngine(t *testing.T) {
	srv, ts := openTestServer(t, 2, Options{CacheBytes: 1 << 20, Analytics: &analytics.Config{}})
	seed(t, ts.URL) // 1→2 weighs 7, twice asked: a miss, then a hit
	for i := 0; i < 2; i++ {
		if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
			t.Fatalf("pre-swap weight = %v, want 7", got)
		}
	}
	if top := heavyHitters(t, ts.URL); len(top) == 0 || top[0].S != 1 {
		t.Fatalf("pre-swap heavy_hitters = %+v, want vertex 1 first", top)
	}
	before := srv.st.Load()

	var snap bytes.Buffer
	if _, err := summaryWithWeight(t, 41).WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", &snap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot upload status %d", resp.StatusCode)
	}

	after := srv.st.Load()
	if after.sum == before.sum || after.pipe == before.pipe {
		t.Fatal("upload did not swap summary and pipeline")
	}
	if after.cache == nil || after.cache == before.cache {
		t.Fatalf("cache after upload = %p, before = %p: want a fresh one", after.cache, before.cache)
	}
	if after.eng == nil || after.eng == before.eng {
		t.Fatalf("engine after upload = %p, before = %p: want a fresh one", after.eng, before.eng)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 41 {
		t.Fatalf("post-swap weight = %v, want 41 (stale cache served)", got)
	}
	// The uploaded contents are served but not re-counted; what arrives
	// after the swap is.
	if top := heavyHitters(t, ts.URL); len(top) != 0 {
		t.Fatalf("post-swap heavy_hitters = %+v, want none yet", top)
	}
	resp = post(t, ts.URL+"/v1/insert", `[{"s":9,"d":2,"w":6,"t":50}]`)
	resp.Body.Close()
	if top := heavyHitters(t, ts.URL); len(top) != 1 || top[0].S != 9 || top[0].Cur != 6 {
		t.Fatalf("heavy_hitters after a post-swap insert = %+v, want vertex 9 at 6", top)
	}
}
