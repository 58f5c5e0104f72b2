package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"higgs/internal/admit"
	"higgs/internal/httpapi"
	"higgs/internal/ingest"
	"higgs/internal/repl"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// checkEnvelope asserts the contract every non-2xx response in this
// repository must honor (DESIGN.md §17): a JSON body of exactly
// {"error": <nonempty>, "code": <expected>, "retry_after_ms"?: <int>},
// retry_after_ms present if and only if the status is 429 (paired with a
// Retry-After header), and nothing else.
func checkEnvelope(t *testing.T, label string, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status = %d, want %d", label, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type = %q, want application/json", label, ct)
	}
	var env httpapi.Envelope
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields() // the envelope is the whole shape — no extras
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("%s: body is not the error envelope: %v", label, err)
	}
	if env.Error == "" {
		t.Fatalf("%s: envelope has empty \"error\"", label)
	}
	if env.Code != wantCode {
		t.Fatalf("%s: code = %q, want %q", label, env.Code, wantCode)
	}
	if wantStatus == http.StatusTooManyRequests {
		if env.RetryAfterMS < 1 {
			t.Fatalf("%s: 429 without retry_after_ms: %+v", label, env)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After header", label)
		}
	} else if env.RetryAfterMS != 0 {
		t.Fatalf("%s: retry_after_ms on a non-429: %+v", label, env)
	}
}

func do(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// envelopeCase is one request and the envelope it must be answered with.
type envelopeCase struct {
	name   string
	method string
	path   string
	body   string
	status int
	code   string
}

// routeContract derives, from a route table, the rows every route owes the
// envelope contract — so a route added later cannot skip them. wrongMethod:
// each of GET/POST/PUT/DELETE that no row of a path serves answers 405.
// replicaWrite: each Write row answers 403 on a read-only replica.
// bodyCap: each POST row answers 413 to a body one byte over the shared
// cap (all whitespace, so the decoder reads to the cap whatever shape it
// wants), except the rows uncapped names with the reason.
func routeContract(t *testing.T, routes []httpapi.Route, uncapped map[string]string) (wrongMethod, replicaWrite, bodyCap []envelopeCase) {
	t.Helper()
	served := map[string]map[string]bool{}
	for _, rt := range routes {
		if served[rt.Path] == nil {
			served[rt.Path] = map[string]bool{}
		}
		served[rt.Path][rt.Method] = true
		if rt.Write {
			replicaWrite = append(replicaWrite, envelopeCase{"replica " + rt.Method + " " + rt.Path,
				rt.Method, rt.Path, "x", 403, httpapi.CodeReadOnlyReplica})
		}
		if _, skip := uncapped[rt.Path]; rt.Method == "POST" && !skip {
			bodyCap = append(bodyCap, envelopeCase{"oversized " + rt.Path,
				"POST", rt.Path, strings.Repeat(" ", maxBatchBody+1), 413, httpapi.CodeBodyTooLarge})
		}
	}
	for path := range uncapped {
		if !served[path]["POST"] {
			t.Fatalf("uncapped names %s, which no POST route serves", path)
		}
	}
	for _, rt := range routes {
		for _, m := range []string{"GET", "POST", "PUT", "DELETE"} {
			if methods := served[rt.Path]; !methods[m] {
				methods[m] = true // once per path
				wrongMethod = append(wrongMethod, envelopeCase{m + " " + rt.Path, m, rt.Path, "", 405, httpapi.CodeMethodNotAllowed})
			}
		}
	}
	return wrongMethod, replicaWrite, bodyCap
}

// uncappedRoutes are the POST routes outside the shared 8 MiB body cap.
var uncappedRoutes = map[string]string{
	"/v1/flush":    "reads no body",
	"/v1/snapshot": "binary upload under its own 1 GiB cap",
}

// TestErrorEnvelopeContract walks every endpoint's error paths —
// /v1/*, /v2/query, /healthz and unknown paths on the server mux — and pins the unified
// envelope shape and code for each.
func TestErrorEnvelopeContract(t *testing.T) {
	srv, ts := newTestServer(t)

	// A /v2/query batch over the probe budget: each delta_vertex item with
	// 4096 in-direction candidates plans 2×4×4096 probes on 4 shards, so 40
	// items exceed the 2^20 per-batch cap.
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"kind":"delta_vertex","dir":"in","ts":1,"te":2,"ts2":3,"te2":4,"candidates":[`)
		for v := 0; v < 4096; v++ {
			if v > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteString("]}")
	}
	sb.WriteString("]")
	overBudget := sb.String()

	cases := []envelopeCase{
		// Wrong method, every endpoint.
		{"insert GET", "GET", "/v1/insert", "", 405, httpapi.CodeMethodNotAllowed},
		{"ingest GET", "GET", "/v1/ingest", "", 405, httpapi.CodeMethodNotAllowed},
		{"flush GET", "GET", "/v1/flush", "", 405, httpapi.CodeMethodNotAllowed},
		{"expire GET", "GET", "/v1/expire", "", 405, httpapi.CodeMethodNotAllowed},
		{"delete GET", "GET", "/v1/delete", "", 405, httpapi.CodeMethodNotAllowed},
		{"snapshot DELETE", "DELETE", "/v1/snapshot", "", 405, httpapi.CodeMethodNotAllowed},
		{"query GET", "GET", "/v2/query", "", 405, httpapi.CodeMethodNotAllowed},
		{"healthz POST", "POST", "/healthz", "", 405, httpapi.CodeMethodNotAllowed},
		// It had no method check before the route table (it answered 200).
		{"stats DELETE", "DELETE", "/v1/stats", "", 405, httpapi.CodeMethodNotAllowed},

		// Unknown paths, the retired /v1 query endpoints among them.
		{"retired edge GET", "GET", "/v1/edge?s=1&d=2&ts=0&te=10", "", 404, httpapi.CodeNotFound},
		{"retired vertex GET", "GET", "/v1/vertex?v=1&ts=0&te=10", "", 404, httpapi.CodeNotFound},
		{"retired path GET", "GET", "/v1/path?v=1,2&ts=0&te=10", "", 404, httpapi.CodeNotFound},
		{"retired subgraph POST", "POST", "/v1/subgraph", `{"edges":[[1,2]],"ts":0,"te":1}`, 404, httpapi.CodeNotFound},
		{"unknown version", "POST", "/v3/query", `[]`, 404, httpapi.CodeNotFound},
		{"unknown root", "GET", "/", "", 404, httpapi.CodeNotFound},

		// Malformed bodies and parameters.
		{"insert bad body", "POST", "/v1/insert", `{"not":"an array"}`, 400, httpapi.CodeBadRequest},
		{"ingest bad body", "POST", "/v1/ingest", `"nope"`, 400, httpapi.CodeBadRequest},
		{"expire bad body", "POST", "/v1/expire", `[1,2]`, 400, httpapi.CodeBadRequest},
		{"delete bad body", "POST", "/v1/delete", `[]`, 400, httpapi.CodeBadRequest},
		{"snapshot bad upload", "POST", "/v1/snapshot", "not a snapshot", 400, httpapi.CodeBadRequest},

		// /v2/query envelope-level failures.
		{"batch not array", "POST", "/v2/query", `{"kind":"edge"}`, 400, httpapi.CodeBadEnvelope},
		{"batch trailing data", "POST", "/v2/query", `[] []`, 400, httpapi.CodeBadEnvelope},
		{"batch over probe budget", "POST", "/v2/query", overBudget, 400, httpapi.CodeProbeBudget},

		// 413: the shared 8 MiB body cap.
		{"insert body too large", "POST", "/v1/insert",
			`[{"s":1,"d":2,"w":3,"t":4,"pad":"` + strings.Repeat("x", maxBatchBody) + `"}]`,
			413, httpapi.CodeBodyTooLarge},
		{"delete body too large", "POST", "/v1/delete",
			`{"s":1,"d":2,"w":3,"t":4,"pad":"` + strings.Repeat("x", maxBatchBody) + `"}`,
			413, httpapi.CodeBodyTooLarge},
	}
	wrongMethod, _, bodyCap := routeContract(t, srv.routes(), uncappedRoutes)
	cases = append(cases, wrongMethod...)
	cases = append(cases, bodyCap...)
	for _, c := range cases {
		resp := do(t, c.method, ts.URL+c.path, c.body)
		checkEnvelope(t, c.name, resp, c.status, c.code)
	}
}

// TestErrorEnvelopeItemCodes: /v2/query item-level problems carry the same
// code vocabulary in their result slots — same codes, different nesting.
func TestErrorEnvelopeItemCodes(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v2/query", `[
		{"kind":"edge","s":1,"d":2,"ts":0,"te":0},
		{"kind":"edge","s":1,"d":2,"ts":9,"te":3},
		{"kind":"path","path":[1,2],"ts":0,"te":0},
		{"kind":"subgraph","edges":[],"ts":0,"te":1},
		{"ts":0,"te":1},
		{"kind":"heavy_hitters","k":5},
		{"kind":"warp","ts":0,"te":1}
	]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 with per-item errors", resp.StatusCode)
	}
	out := decode[[]struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}](t, resp)
	if len(out) != 7 {
		t.Fatalf("got %d results, want 7", len(out))
	}
	// The last item's kind name does not decode, so it fails at the item
	// decode stage with the generic bad_request code.
	want := []string{"zero_window", "inverted_window", "zero_window", "empty_subgraph", "missing_kind",
		"analytics_disabled", "bad_request"}
	for i, code := range want {
		if out[i].Code != code {
			t.Errorf("item %d: code = %q, want %q", i, out[i].Code, code)
		}
		if out[i].Error == "" {
			t.Errorf("item %d: empty error message", i)
		}
	}
}

// TestErrorEnvelopeAdmission: admission shed answers 429 with the envelope,
// a rate_limited code, and a pacing hint.
func TestErrorEnvelopeAdmission(t *testing.T) {
	ctrl, err := admit.New(admit.Config{Rate: 0.001, Burst: 1, RetryAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := openTestServer(t, 4, Options{Admission: ctrl})
	// The first query drains the client's only token; the second sheds.
	const edge = `[{"kind":"edge","s":1,"d":2,"ts":0,"te":10}]`
	resp := post(t, ts.URL+"/v2/query", edge)
	resp.Body.Close()
	var shed *http.Response
	for i := 0; i < 10; i++ {
		shed = post(t, ts.URL+"/v2/query", edge)
		if shed.StatusCode == http.StatusTooManyRequests {
			break
		}
		shed.Body.Close()
	}
	checkEnvelope(t, "rate limited", shed, 429, httpapi.CodeRateLimited)
}

// TestErrorEnvelopeBackpressureAndShutdown: ingest queue-full answers 429
// ingest_backpressure; a closed server answers 503 shutting_down.
func TestErrorEnvelopeShutdown(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Close()
	resp := post(t, ts.URL+"/v1/ingest", `[{"s":1,"d":2,"w":3,"t":4}]`)
	checkEnvelope(t, "ingest after close", resp, 503, httpapi.CodeShuttingDown)
	resp = post(t, ts.URL+"/v1/expire", `{"cutoff":10}`)
	checkEnvelope(t, "expire after close", resp, 503, httpapi.CodeShuttingDown)
}

// TestErrorEnvelopeReplica: every write on a read-only replica answers 403
// read_only_replica.
func TestErrorEnvelopeReplica(t *testing.T) {
	srv, ts := openTestServer(t, 2, Options{Replica: true})
	_, replicaWrite, _ := routeContract(t, srv.routes(), uncappedRoutes)
	if len(replicaWrite) < 6 {
		t.Fatalf("route table marks %d write rows, want the six write endpoints at least", len(replicaWrite))
	}
	for _, c := range replicaWrite {
		resp := do(t, c.method, ts.URL+c.path, c.body)
		checkEnvelope(t, c.name, resp, c.status, c.code)
	}
	// And the reads stay open: no unmarked row answers 403.
	for _, rt := range srv.routes() {
		if rt.Write || rt.Method != "GET" {
			continue
		}
		resp := do(t, "GET", ts.URL+rt.Path, "")
		resp.Body.Close()
		if resp.StatusCode == http.StatusForbidden || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Fatalf("GET %s on a replica: status %d", rt.Path, resp.StatusCode)
		}
	}
}

// TestErrorEnvelopeWALOwned: over a write-ahead log, a snapshot upload
// answers 409 wal_owned.
func TestErrorEnvelopeWALOwned(t *testing.T) {
	_, ts := openTestServer(t, 4, Options{Ingest: ingest.Config{WAL: openTestWAL(t, t.TempDir())}})
	resp := post(t, ts.URL+"/v1/snapshot", "irrelevant")
	checkEnvelope(t, "snapshot upload", resp, 409, httpapi.CodeWALOwned)
}

// TestErrorEnvelopeRepl: the replication surface speaks the same envelope —
// wrong methods, bad parameters, and the truncation signal.
func TestErrorEnvelopeRepl(t *testing.T) {
	cfg := shard.DefaultConfig()
	cfg.Shards = 2
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal"), SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(sum, ingest.Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(repl.NewPrimary(sum, log).Handler())
	t.Cleanup(func() {
		ts.Close()
		pipe.Close()
		log.Close()
	})

	for _, c := range []struct {
		name, method, path string
		status             int
		code               string
	}{
		{"info POST", "POST", "/repl/info", 405, httpapi.CodeMethodNotAllowed},
		{"snapshot POST", "POST", "/repl/snapshot", 405, httpapi.CodeMethodNotAllowed},
		{"wal POST", "POST", "/repl/wal", 405, httpapi.CodeMethodNotAllowed},
		{"wal bad after", "GET", "/repl/wal?after=frog", 400, httpapi.CodeBadRequest},
		{"wal bad wait", "GET", "/repl/wal?after=0&wait=frog", 400, httpapi.CodeBadRequest},
		{"unknown path", "GET", "/repl/nope", 404, httpapi.CodeNotFound},
	} {
		resp := do(t, c.method, ts.URL+c.path, "")
		checkEnvelope(t, c.name, resp, c.status, c.code)
	}

	// Truncation: feed edges, snapshot (which truncates the covered WAL
	// prefix), then resume from 0 — the records are gone, so 410 truncated.
	batch := make([]stream.Edge, 64)
	for i := range batch {
		batch[i] = stream.Edge{S: uint64(i), D: uint64(i + 1), W: 1, T: int64(i)}
	}
	if _, err := pipe.Submit(batch); err != nil {
		t.Fatal(err)
	}
	snapper := ingest.NewSnapshotter(sum, pipe, log, filepath.Join(dir, "snap.higgs"), 0, nil)
	defer snapper.Close()
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	if log.FirstSeq() <= 1 {
		t.Skip("snapshot did not truncate the log; truncation path not reachable here")
	}
	resp := do(t, "GET", ts.URL+"/repl/wal?after=0", "")
	checkEnvelope(t, "wal truncated", resp, 410, httpapi.CodeTruncated)
}
