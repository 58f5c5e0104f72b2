package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"higgs/internal/admit"
	"higgs/internal/repl"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

func newSeededSummary(t *testing.T, shards int) *shard.Summary {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum.InsertBatch([]stream.Edge{
		{S: 1, D: 2, W: 3, T: 10},
		{S: 1, D: 2, W: 4, T: 20},
		{S: 2, D: 3, W: 5, T: 30},
	})
	return sum
}

func newReplicaServer(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	return serveSummary(t, newSeededSummary(t, shards), Options{Replica: true})
}

// TestReplicaServesReads checks a read-only replica answers every read
// surface — /v2/query, stats, snapshot download — from its replicated
// summary.
func TestReplicaServesReads(t *testing.T) {
	_, ts := newReplicaServer(t, 4)

	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("edge weight = %v, want 7", got)
	}
	if got := ask(t, ts.URL, `{"kind":"vertex_out","v":1,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("vertex weight = %v, want 7", got)
	}
	resp := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = get(t, ts.URL+"/v1/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot GET status %d", resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || n == 0 {
		t.Fatalf("snapshot body: %d bytes, err %v", n, err)
	}
}

// TestReplicaRejectsWrites checks every mutating endpoint answers 403 on a
// replica, leaving the summary untouched.
func TestReplicaRejectsWrites(t *testing.T) {
	_, ts := newReplicaServer(t, 2)
	writes := []struct {
		path, body string
	}{
		{"/v1/insert", `[{"s":9,"d":9,"w":1,"t":1}]`},
		{"/v1/ingest", `[{"s":9,"d":9,"w":1,"t":1}]`},
		{"/v1/flush", ""},
		{"/v1/expire", `{"cutoff":100}`},
		{"/v1/delete", `{"s":1,"d":2,"w":3,"t":10}`},
		{"/v1/snapshot", ""},
	}
	for _, wr := range writes {
		resp := post(t, ts.URL+wr.path, wr.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("POST %s: status %d, want 403", wr.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "read-only replica") {
			t.Errorf("POST %s: body %q, want read-only replica error", wr.path, body)
		}
	}
	// The summary is untouched: the would-be deleted edge still answers.
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("edge weight after rejected writes = %v, want 7", got)
	}
}

// TestReplicaReplaceSummary checks the resync swap: reads atomically cut
// over to the new summary, and ReplaceSummary is refused on a non-replica.
func TestReplicaReplaceSummary(t *testing.T) {
	srv, ts := newReplicaServer(t, 2)

	cfg := shard.DefaultConfig()
	cfg.Shards = 2
	next, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next.InsertBatch([]stream.Edge{{S: 1, D: 2, W: 100, T: 10}})
	if err := srv.ReplaceSummary(next); err != nil {
		t.Fatal(err)
	}
	if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 100 {
		t.Fatalf("edge weight after swap = %v, want 100", got)
	}

	standalone, _ := newTestServer(t)
	other, err := shard.New(shard.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := standalone.ReplaceSummary(other); err == nil {
		t.Fatal("ReplaceSummary on a non-replica did not error")
	}
}

// TestHealthzContract pins the full /healthz JSON shape — top-level key
// set, nested field names, and the replication block for each role — so a
// monitoring consumer can rely on it.
func TestHealthzContract(t *testing.T) {
	topKeys := []string{
		"admission", "analytics", "durability", "memory", "read_cache",
		"replication", "retention", "shards", "status", "uptime_seconds", "version",
	}
	memKeys := []string{"heap_alloc_bytes", "heap_inuse_bytes", "mallocs", "num_gc", "total_alloc_bytes"}

	cases := []struct {
		name  string
		build func(t *testing.T) *httptest.Server
		// expected scalar fields
		shards float64
		// expected replication block
		repl map[string]any
	}{
		{
			name: "standalone",
			build: func(t *testing.T) *httptest.Server {
				_, ts := newTestServerShards(t, 3)
				return ts
			},
			shards: 3,
			repl:   map[string]any{"role": "standalone"},
		},
		{
			name: "primary",
			build: func(t *testing.T) *httptest.Server {
				_, ts := openTestServer(t, 2, Options{Replication: func() repl.Status {
					return repl.Status{Role: repl.RolePrimary, PrimarySeq: 42}
				}})
				return ts
			},
			shards: 2,
			repl:   map[string]any{"role": "primary", "primary_seq": float64(42)},
		},
		{
			name: "follower",
			build: func(t *testing.T) *httptest.Server {
				_, ts := serveSummary(t, newSeededSummary(t, 2), Options{Replica: true, Replication: func() repl.Status {
					return repl.Status{
						Role:       repl.RoleFollower,
						Source:     "http://primary:7422",
						AppliedSeq: 40,
						PrimarySeq: 42,
						Lag:        2,
						Resyncs:    1,
					}
				}})
				return ts
			},
			shards: 2,
			repl: map[string]any{
				"role":        "follower",
				"source":      "http://primary:7422",
				"applied_seq": float64(40),
				"primary_seq": float64(42),
				"lag":         float64(2),
				"resyncs":     float64(1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := tc.build(t)
			resp := get(t, ts.URL+"/healthz")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz status %d", resp.StatusCode)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("healthz not a JSON object: %v", err)
			}
			if keys := sortedKeys(got); !reflect.DeepEqual(keys, topKeys) {
				t.Fatalf("top-level keys = %v, want %v", keys, topKeys)
			}

			var scalars struct {
				Status string  `json:"status"`
				Shards float64 `json:"shards"`
			}
			if err := json.Unmarshal(raw, &scalars); err != nil {
				t.Fatal(err)
			}
			if scalars.Status != "ok" || scalars.Shards != tc.shards {
				t.Fatalf("scalars = %+v, want status ok, shards %v", scalars, tc.shards)
			}

			var durability map[string]any
			if err := json.Unmarshal(got["durability"], &durability); err != nil {
				t.Fatal(err)
			}
			if _, ok := durability["wal"]; !ok {
				t.Fatalf("durability %v missing wal field", durability)
			}
			var retention map[string]any
			if err := json.Unmarshal(got["retention"], &retention); err != nil {
				t.Fatal(err)
			}
			if _, ok := retention["enabled"]; !ok {
				t.Fatalf("retention %v missing enabled field", retention)
			}
			var memory map[string]any
			if err := json.Unmarshal(got["memory"], &memory); err != nil {
				t.Fatal(err)
			}
			if keys := sortedKeysAny(memory); !reflect.DeepEqual(keys, memKeys) {
				t.Fatalf("memory keys = %v, want %v", keys, memKeys)
			}
			var repl map[string]any
			if err := json.Unmarshal(got["replication"], &repl); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(repl, tc.repl) {
				t.Fatalf("replication = %v, want %v", repl, tc.repl)
			}

			var readCache map[string]any
			if err := json.Unmarshal(got["read_cache"], &readCache); err != nil {
				t.Fatal(err)
			}
			if _, ok := readCache["enabled"]; !ok {
				t.Fatalf("read_cache %v missing enabled field", readCache)
			}
			var admission map[string]any
			if err := json.Unmarshal(got["admission"], &admission); err != nil {
				t.Fatal(err)
			}
			if _, ok := admission["enabled"]; !ok {
				t.Fatalf("admission %v missing enabled field", admission)
			}
			var analyticsBlock map[string]any
			if err := json.Unmarshal(got["analytics"], &analyticsBlock); err != nil {
				t.Fatal(err)
			}
			if _, ok := analyticsBlock["enabled"]; !ok {
				t.Fatalf("analytics %v missing enabled field", analyticsBlock)
			}
			var uptime float64
			if err := json.Unmarshal(got["uptime_seconds"], &uptime); err != nil {
				t.Fatalf("uptime_seconds not a number: %v", err)
			}
			if uptime < 0 {
				t.Fatalf("uptime_seconds = %v, want >= 0", uptime)
			}
			var version string
			if err := json.Unmarshal(got["version"], &version); err != nil {
				t.Fatalf("version not a string: %v", err)
			}
			if version == "" {
				t.Fatal("version is empty")
			}
		})
	}
}

// TestHealthzCacheAndAdmissionEnabled pins the enabled-side shape of the
// read_cache and admission blocks: counters appear once the features are
// switched on and reflect served traffic.
func TestHealthzCacheAndAdmissionEnabled(t *testing.T) {
	ctrl, err := admit.New(admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := openTestServer(t, 2, Options{CacheBytes: 1 << 20, Admission: ctrl})

	post(t, ts.URL+"/v1/insert", `[{"s":1,"d":2,"w":3,"t":10}]`)
	// Two identical queries: a miss then a hit.
	for i := 0; i < 2; i++ {
		if got := ask(t, ts.URL, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 3 {
			t.Fatalf("edge weight = %v, want 3", got)
		}
	}

	resp := get(t, ts.URL+"/healthz")
	var health struct {
		ReadCache struct {
			Enabled bool   `json:"enabled"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Max     int64  `json:"max_bytes"`
		} `json:"read_cache"`
		Admission struct {
			Enabled bool `json:"enabled"`
			Cheap   struct {
				Admitted uint64 `json:"admitted"`
			} `json:"cheap"`
		} `json:"admission"`
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	rc, adm := health.ReadCache, health.Admission
	if !rc.Enabled || rc.Hits == 0 || rc.Misses == 0 || rc.Max == 0 {
		t.Fatalf("read_cache block = %+v, want enabled with hit+miss traffic", rc)
	}
	if !adm.Enabled || adm.Cheap.Admitted < 2 {
		t.Fatalf("admission block = %+v, want enabled with >= 2 cheap admissions", adm)
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysAny(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestReplicaEndToEndSwapUnderReads hammers /v2/query while ReplaceSummary
// swaps summaries underneath (run with -race): readers must always see one
// complete summary, never a torn or closed one.
func TestReplicaEndToEndSwapUnderReads(t *testing.T) {
	srv, ts := newReplicaServer(t, 2)
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v2/query", "application/json",
				strings.NewReader(`[{"kind":"edge","s":1,"d":2,"ts":0,"te":100}]`))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query status %d: %s", resp.StatusCode, body)
				return
			}
			if bytes.Contains(body, []byte(`"error"`)) {
				errs <- fmt.Errorf("query error mid-swap: %s", body)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		cfg := shard.DefaultConfig()
		cfg.Shards = 2
		next, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		next.InsertBatch([]stream.Edge{{S: 1, D: 2, W: int64(i + 1), T: 10}})
		if err := srv.ReplaceSummary(next); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
