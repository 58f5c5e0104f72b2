package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"higgs/internal/analytics"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/repl"
	"higgs/internal/shard"
	"higgs/internal/stream"
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
// before it replays the log, so a server booted over un-snapshotted
// records tracks them exactly like live ones. (An engine attached after
// the replay would serve the recovered edges and rank nothing.)
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

// TestNegativeTimestampUnderAnalytics: HTTP ingest accepts any int64
// timestamp, so an edge before the epoch origin must be tracked in a
// negative epoch — the observer runs under a shard write lock, where a
// panic takes the daemon down — and burst must answer over it.
func TestNegativeTimestampUnderAnalytics(t *testing.T) {
	_, ts := openTestServer(t, 2, Options{Analytics: &analytics.Config{}})
	resp := post(t, ts.URL+"/v1/insert", `[{"s":1,"d":2,"w":40,"t":-61}]`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/v2/query", `[{"kind":"burst"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst status %d", resp.StatusCode)
	}
	out := decode[[]struct {
		Top []query.Entry `json:"top"`
	}](t, resp)
	if len(out) != 1 || len(out[0].Top) != 1 || out[0].Top[0].S != 1 || out[0].Top[0].Cur != 40 || !out[0].Top[0].Burst {
		t.Fatalf("burst answer = %+v, want vertex 1 flagged at 40", out)
	}
}

// analyticsWeights collects every heavy_hitters row, both directions, as
// direction+vertex → Cur.
func analyticsWeights(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp := post(t, base+"/v2/query", `[{"kind":"heavy_hitters","k":256},{"kind":"heavy_hitters","dir":"in","k":256}]`)
	out := decode[[]struct {
		Top []query.Entry `json:"top"`
	}](t, resp)
	w := map[string]int64{}
	for i, dir := range []string{"out", "in"} {
		for _, e := range out[i].Top {
			w[fmt.Sprint(dir, e.S)] = e.Cur
		}
	}
	return w
}

// sameWhereBoth fails unless every vertex a and b both report carries one
// weight, and at least one does.
func sameWhereBoth(t *testing.T, label string, a, b map[string]int64) {
	t.Helper()
	both := 0
	for v, w := range a {
		if w2, ok := b[v]; ok {
			both++
			if w != w2 {
				t.Errorf("%s: %s weighs %d on one side, %d on the other", label, v, w, w2)
			}
		}
	}
	if both == 0 {
		t.Fatalf("%s: no vertex reported on both sides", label)
	}
}

// analyticsStream is edges whose heavy vertices are active throughout, so a
// side that tracked only the tail would see a different weight.
func analyticsStream(t *testing.T) []stream.Edge {
	t.Helper()
	st, err := stream.Generate(stream.Config{Nodes: 60, Edges: 3_000, Span: 6_000, Skew: 1.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAnalyticsWeightsAcrossRoles: a follower booted from the primary's
// snapshot that then tails more writes tracks only the tail, but every
// vertex both report carries the same weight: both probe the same summary.
func TestAnalyticsWeightsAcrossRoles(t *testing.T) {
	cfg := shard.DefaultConfig()
	cfg.Shards = 4
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log := openTestWAL(t, dir)
	psrv, pts := serveSummary(t, sum, Options{Ingest: ingest.Config{WAL: log}, Analytics: &analytics.Config{}})
	feed := httptest.NewServer(repl.NewPrimary(sum, log).Handler())
	t.Cleanup(feed.Close)
	st := analyticsStream(t)
	half := len(st) / 2
	if _, err := psrv.Pipeline().Submit(st[:half]); err != nil {
		t.Fatal(err)
	}
	psrv.Pipeline().Flush()
	snapper := ingest.NewSnapshotter(sum, psrv.Pipeline(), log, filepath.Join(dir, "snapshot.higgs"), 0, nil)
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	snapper.Close()

	f, err := repl.NewFollower(repl.FollowerConfig{Source: feed.URL, PollWait: 100 * time.Millisecond, RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	_, fts := serveSummary(t, f.Summary(), Options{Replica: true, Analytics: &analytics.Config{}})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := psrv.Pipeline().Submit(st[half:]); err != nil {
		t.Fatal(err)
	}
	psrv.Pipeline().Flush()
	if !f.WaitApplied(log.LastSeq(), 30*time.Second) {
		t.Fatalf("follower stuck at %d, want %d", f.Status().AppliedSeq, log.LastSeq())
	}
	sameWhereBoth(t, "primary vs follower", analyticsWeights(t, pts.URL), analyticsWeights(t, fts.URL))
}

// TestAnalyticsWeightsAcrossRestart: a server reopened from snapshot.higgs
// plus the WAL tail tracks only the tail, but every vertex reported before
// and after the restart carries the same weight.
func TestAnalyticsWeightsAcrossRestart(t *testing.T) {
	cfg := shard.DefaultConfig()
	cfg.Shards = 4
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Open(sum, Options{Ingest: ingest.Config{WAL: log}, Analytics: &analytics.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	st := analyticsStream(t)
	half := len(st) / 2
	if _, err := srv.Pipeline().Submit(st[:half]); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snapshot.higgs")
	snapper := ingest.NewSnapshotter(sum, srv.Pipeline(), log, snapPath, 0, nil)
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	snapper.Close()
	if _, err := srv.Pipeline().Submit(st[half:]); err != nil {
		t.Fatal(err)
	}
	srv.Pipeline().Flush()
	before := analyticsWeights(t, ts.URL)
	ts.Close()
	srv.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := shard.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv, ts = serveSummary(t, restored, Options{Ingest: ingest.Config{WAL: openTestWAL(t, dir)}, Analytics: &analytics.Config{}})
	if srv.Replayed() == 0 {
		t.Fatal("nothing replayed: the restart has no WAL tail")
	}
	sameWhereBoth(t, "before vs after the restart", before, analyticsWeights(t, ts.URL))
}
