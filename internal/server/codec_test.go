package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"higgs/internal/analytics"
	"higgs/internal/httpapi"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// codecServer is a 4-shard analytics server holding a few edges, driven in
// process: every query kind has something to answer.
func codecServer(tb testing.TB) *Server {
	tb.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = 4
	sum, err := shard.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := Open(sum, Options{Analytics: &analytics.Config{}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	var edges []stream.Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, stream.Edge{S: uint64(i%7 + 1), D: uint64(i%5 + 2), W: int64(i%3 + 1), T: int64(10 + i)})
	}
	body, err := json.Marshal(edges)
	if err != nil {
		tb.Fatal(err)
	}
	if rec := serve(srv.Handler(), "/v1/insert", body); rec.Code != http.StatusOK {
		tb.Fatalf("seeding: %d %s", rec.Code, rec.Body)
	}
	return srv
}

// serve POSTs body to path on h, in process.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// referenceResult is the documented /v2/query answer slot, all four fields
// of it; the handler renders weight slots without the struct.
type referenceResult struct {
	Weight *int64        `json:"weight,omitempty"`
	Top    []query.Entry `json:"top,omitempty"`
	Error  string        `json:"error,omitempty"`
	Code   string        `json:"code,omitempty"`
}

// referenceQueryBatch is /v2/query with neither the scanner nor the
// appended answer: the encoding/json loop over the body, then one
// json.Encoder over a slice of answer structs. What it responds is what the
// handler must respond, byte for byte, to any body under the size cap.
func (s *Server) referenceQueryBatch(w http.ResponseWriter, r *http.Request) error {
	var body bytes.Buffer
	if _, err := body.ReadFrom(r.Body); err != nil {
		return err
	}
	env, st := new(envelope), s.st.Load()
	if err := env.decode(body.Bytes(), st); err != nil {
		return err
	}
	if env.probes > maxBatchProbes {
		return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeProbeBudget,
			"batch expands to more than %d per-shard probes; split it", maxBatchProbes)
	}
	results := query.DoBatchWith(st.read, st.analytics(), env.batch)
	out := make([]referenceResult, len(env.out))
	for i, slot := range env.out {
		out[i] = referenceResult{Error: slot.Error, Code: slot.Code}
	}
	for j, res := range results {
		slot := &out[env.idx[j]]
		if res.Err != nil {
			slot.Error, slot.Code = res.Err.Error(), errCode(res.Err)
			continue
		}
		switch env.batch[j].Kind {
		case query.KindDeltaVertex, query.KindDeltaEdge, query.KindHeavyHitters, query.KindBurst:
			slot.Top = res.Top
		default:
			slot.Weight = &res.Weight
		}
	}
	writeJSON(w, out)
	return nil
}

func (s *Server) referenceHandler() http.Handler {
	return httpapi.Mux([]httpapi.Route{{Path: "/v2/query", Method: http.MethodPost, Handle: s.referenceQueryBatch}}, false)
}

// sameQueries compares two decoded batches, a nil slice equal to an empty
// one (encoding/json decodes "[]" to an empty slice, the scanner to a
// zero-length window of its shared backing).
func sameQueries(a, b []query.Query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !slices.Equal(x.Path, y.Path) || !slices.Equal(x.Candidates, y.Candidates) || !slices.Equal(x.Edges, y.Edges) {
			return false
		}
		x.Path, x.Candidates, x.Edges, y.Path, y.Candidates, y.Edges = nil, nil, nil, nil, nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkEnvelopeBody holds the scanner to encoding/json on one body — if it
// answers, it answers the same (batch, out, idx, probes) — and the handler's
// response to the reference's. It returns whether the scanner answered.
func checkEnvelopeBody(t *testing.T, srv *Server, body []byte) bool {
	t.Helper()
	st := srv.st.Load()
	fast, slow := new(envelope), new(envelope)
	ok := scanEnvelope(body, st, fast)
	slowErr := slow.decode(body, st)
	if ok {
		switch {
		case slowErr != nil:
			t.Fatalf("body %q: scanned, but encoding/json rejects it: %v", body, slowErr)
		case !sameQueries(fast.batch, slow.batch):
			t.Fatalf("body %q: scanned batch %+v, encoding/json %+v", body, fast.batch, slow.batch)
		case !slices.Equal(fast.idx, slow.idx) || fast.probes != slow.probes:
			t.Fatalf("body %q: scanned idx %v probes %d, encoding/json idx %v probes %d",
				body, fast.idx, fast.probes, slow.idx, slow.probes)
		case !reflect.DeepEqual(fast.out, slow.out):
			t.Fatalf("body %q: scanned out slots %+v, encoding/json %+v", body, fast.out, slow.out)
		}
	}
	got, want := serve(srv.Handler(), "/v2/query", body), serve(srv.referenceHandler(), "/v2/query", body)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("body %q:\nhandler   %d %s\nreference %d %s", body, got.Code, got.Body, want.Code, want.Body)
	}
	if ct := got.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("body %q: Content-Type %q", body, ct)
	}
	return ok
}

// envelopeSeeds are the /v2/query bodies the other tests post, the analytics
// kinds with every optional field, and the spellings that sit on the edge of
// the scanner's grammar.
var envelopeSeeds = []string{
	// TestV2QueryEnvelope
	`[]`, `{"kind":"edge"}`, `garbage`, ``, `[] trailing garbage`,
	`[{"kind":"edge","s":1,"d":2,"ts":0,"te":1}][]`,
	`[0,{"kind":"banana"},{"nope":1}]`, `[0,{"kind":"banana"},tru]`, `[0 0]`,
	`[{"kind":"edge","s":1`, `[{"kind":"edge","s":1,"d":2,"ts":0,"te":1}`,
	// TestV2QueryPerItemErrors
	`[
		{"kind":"edge","s":1,"d":2,"ts":0,"te":100},
		{"kind":"edge","s":1,"d":2,"ts":100,"te":50},
		{"kind":"banana","ts":0,"te":1},
		{"kind":"path","path":[1],"ts":0,"te":1},
		{"not even":"a query"},
		{"kind":"vertex_out","v":1,"ts":0,"te":100}
	]`,
	// TestV2QueryMissingKind
	`[{"v":2,"ts":0,"te":100},{"kind":"vertex_in","v":2,"ts":0,"te":100}]`,
	// every weight kind, then every ranked kind
	`[{"kind":"edge","s":1,"d":2,"ts":0,"te":300},{"kind":"vertex_out","v":1,"ts":0,"te":300},
	  {"kind":"vertex_in","v":2,"ts":0,"te":300},{"kind":"path","path":[1,2,3],"ts":0,"te":300},
	  {"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":300}]`,
	`[{"kind":"heavy_hitters","k":2},{"kind":"heavy_hitters","dir":"in","k":2},{"kind":"burst","k":2},
	  {"kind":"delta_vertex","candidates":[1,2,3],"dir":"out","k":2,"ts":1,"te":100,"ts2":101,"te2":300},
	  {"kind":"delta_vertex","ts":1,"te":100,"ts2":101,"te2":300},
	  {"kind":"delta_edge","edges":[[1,2],[2,3]],"ts":1,"te":100,"ts2":101,"te2":300}]`,
	`[{"kind":"heavy_hitters","dir":"sideways"},{"kind":"heavy_hitters","dir":""},{"kind":"burst","k":-1},{"kind":"burst","k":257}]`,
	// the edges of the grammar
	`[{"kind":"edge","s":18446744073709551615,"d":0,"ts":-9223372036854775808,"te":9223372036854775807}]`,
	`[{"kind":"edge","s":18446744073709551616,"d":0,"ts":1,"te":2}]`,
	`[{"kind":"edge","s":1,"d":2,"ts":-9223372036854775809,"te":2}]`,
	`[{"kind":"edge","s":1,"d":2,"ts":-0,"te":1}]`, `[{"kind":"edge","s":-0,"d":2,"ts":0,"te":1}]`,
	`[{"kind":"edge","s":1.0,"d":2,"ts":0,"te":1}]`, `[{"kind":"edge","s":1e3,"d":2,"ts":0,"te":1}]`,
	`[{"kind":"edge","s":01,"d":2,"ts":0,"te":1}]`,
	`[{"kind":"edge","S":1,"d":2,"ts":0,"te":1}]`, `[{"kind":"edge","ſ":1,"d":2,"ts":0,"te":1}]`,
	`[{"Kind":"edge","s":1,"d":2,"ts":0,"te":1}]`, `[{"kind":"EDGE","s":1,"d":2,"ts":0,"te":1}]`,
	`[{"kind":"ed\u0067e","s":1,"d":2,"ts":0,"te":1}]`, `[{"k\u0069nd":"edge","s":1,"d":2,"ts":0,"te":1}]`,
	`[{"kind":"edge","s":1,"s":2,"d":2,"ts":0,"te":1}]`, `[{"kind":"edge","kind":"path","path":[1,2],"ts":0,"te":1}]`,
	`[{"kind":"path","path":[1,2],"path":[3],"ts":0,"te":1}]`,
	`[{"kind":null,"s":1}]`, `[{"kind":"edge","s":null,"d":2,"ts":0,"te":1}]`, `[{"kind":"path","path":null,"ts":0,"te":1}]`, `[null]`,
	`[{"kind":"path","path":[],"ts":0,"te":1}]`, `[{"kind":"subgraph","edges":[],"ts":0,"te":1}]`,
	`[{"kind":"subgraph","edges":[[1]],"ts":0,"te":1}]`, `[{"kind":"subgraph","edges":[[1,2,3]],"ts":0,"te":1}]`,
	`[{"kind":"subgraph","edges":[[]],"ts":0,"te":1}]`, `[{"kind":"path","path":[1,],"ts":0,"te":1}]`,
	`[{"kind":"edge","s":1,"d":2,"ts":0,"te":1},]`, `[{"kind":"edge","s":1,"d":2,"ts":0,"te":1,}]`, `[,]`, `[{}]`, `[{},{}]`,
	" [ { \"kind\" : \"edge\" , \"s\" : 1 ,\n\t\"d\" : 2 , \"ts\" : 0 , \"te\" : 300 } ]\r\n",
	`[{"kind":"burst","k":9223372036854775807}]`, `[{"kind":"burst","k":9223372036854775808}]`,
	"[{\"kind\":\"edge\"}]\x00", "\xef\xbb\xbf[]", `[{"kind":"edge","x":1}]`, `[[]]`, `["edge"]`, `[true]`,
}

// FuzzQueryEnvelope: for any body, whenever the scanner answers, it
// answers what the encoding/json loop answers from the same bytes, and
// whichever of the two the handler ran, its response is the reference's.
func FuzzQueryEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	for _, n := range signedBorders {
		f.Add([]byte(`[{"kind":"edge","s":1,"d":2,"ts":` + n + `,"te":1}]`))
		f.Add([]byte(`[{"kind":"edge","s":1,"d":2,"ts":0,"te":` + n + `}]`))
		f.Add([]byte(`[{"kind":"burst","k":` + n + `}]`))
	}
	srv := codecServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEnvelopeBody(t, srv, body)
	})
}

// TestScannerServesTheTraffic: the bodies clients actually send — whatever
// json.Marshal or json.MarshalIndent renders, and the compact spelling of
// the repository's own load generator — are the scanner's, not the
// fallback's.
func TestScannerServesTheTraffic(t *testing.T) {
	srv := codecServer(t)
	edges := []stream.Edge{{S: 1, D: 2, W: 3, T: 10}, {S: 1<<64 - 1, D: 0, W: -1 << 63, T: 1<<63 - 1}, {}}
	queries := []query.Query{
		query.NewEdge(1, 2, 0, 300), query.NewVertexOut(1, 0, 300), query.NewVertexIn(2, 0, 300),
		query.NewPath([]uint64{1, 2, 3}, 0, 300), query.NewSubgraph([][2]uint64{{1, 2}, {2, 3}}, 0, 300),
		query.NewDeltaVertex([]uint64{1, 2}, 1, 100, 101, 300), query.NewDeltaEdge([][2]uint64{{1, 2}}, 1, 100, 101, 300),
		query.NewHeavyHitters(query.DirIn, 3), query.NewBurst(3),
	}
	marshal := func(v any, indent bool) []byte {
		b, err := json.Marshal(v)
		if indent {
			b, err = json.MarshalIndent(v, "", "\t")
		}
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, body := range [][]byte{
		marshal(edges, false), marshal(edges, true), []byte(`[]`),
		[]byte(`[{"s":17,"d":4,"w":1,"t":1000},{"s":4,"d":9,"w":2,"t":1001}]`), // the load generator's
	} {
		got, ok := scanEdges(body, nil)
		var want []stream.Edge
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !ok || !slices.Equal(got, want) {
			t.Errorf("scanEdges(%s) = %+v, %v; want %+v from the scanner", body, got, ok, want)
		}
	}
	for _, body := range [][]byte{
		marshal(queries, false), marshal(queries, true), []byte(`[]`),
		[]byte(`[{"kind":"edge","s":1,"d":2,"ts":0,"te":300},{"kind":"vertex_out","v":1,"ts":0,"te":300},` +
			`{"kind":"vertex_in","v":2,"ts":0,"te":300},{"kind":"path","path":[1,2,3],"ts":0,"te":300},` +
			`{"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":300}]`), // the load generator's
	} {
		if !checkEnvelopeBody(t, srv, body) {
			t.Errorf("scanEnvelope gave up on %s", body)
		}
	}
}

// TestScannerEdgeSpellings: the edge scanner reads json.Marshal's key
// order with whitespace around any token, and gives up on every other
// spelling — another key order, a repeated or missing key — which the
// fallback decodes exactly as json.Unmarshal does (for a repeated key, the
// last value wins).
func TestScannerEdgeSpellings(t *testing.T) {
	for _, c := range []struct {
		body    string
		scanned bool
	}{
		{`[{"s": 1, "d": 2, "w": -3, "t": 4}, {"s": 5, "d": 6, "w": 7, "t": 8}]`, true},
		{" [ { \"s\" :\t1 ,\r\n\"d\" : 2 , \"w\" : 3 , \"t\" : 4 } ] ", true},
		{`[{"s":1,"d":2,"t":4,"w":3}]`, false},
		{`[{"d":2,"s":1,"w":3,"t":4}]`, false},
		{`[{"t":4,"w":3,"d":2,"s":1}]`, false},
		{`[{"s":1,"d":2,"w":3,"t":4},{"s":5,"d":6,"t":8,"w":7}]`, false},
		{`[{"s":1,"d":2,"w":3,"t":4,"t":5}]`, false},
		{`[{"s":1,"s":9,"d":2,"w":3,"t":4}]`, false},
		{`[{"s":1,"d":2,"w":3}]`, false},
		{`[{"s":1,"d":2,"t":4}]`, false},
		{`[{"d":2,"w":3,"t":4}]`, false},
		{`[{}]`, false},
		{`[{"s":1,"d":2,"w":3,"t":4},{}]`, false},
	} {
		body := []byte(c.body)
		if got, ok := scanEdges(body, nil); ok != c.scanned {
			t.Errorf("scanEdges(%s) = %+v, %v; want ok %v", body, got, ok, c.scanned)
		}
		var want []stream.Edge
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		b, err := decodeBatch(body)
		if err != nil {
			t.Fatalf("decodeBatch(%s): %v", body, err)
		}
		if !slices.Equal(b.edges, want) {
			t.Errorf("decodeBatch(%s) = %+v, json.Unmarshal %+v", body, b.edges, want)
		}
		putBatch(b)
	}
}

// TestScannerOneEditFromCanonical walks the border of the scanner's
// grammar, where random fuzzing rarely lands: every body one edit away from
// a canonical one — each byte deleted, replaced by, or preceded by each of
// the bytes JSON gives a meaning to — is held to the fuzzers' oracles.
func TestScannerOneEditFromCanonical(t *testing.T) {
	srv := codecServer(t)
	edits := func(body string, check func(*testing.T, []byte)) {
		for i := range body {
			check(t, []byte(body[:i]+body[i+1:]))
			for _, c := range "{}[]\",:-+.eE0129 \n\\nsSk\x00\u017f" {
				check(t, []byte(body[:i]+string(c)+body[i+1:]))
				check(t, []byte(body[:i]+string(c)+body[i:]))
			}
		}
	}
	edits(`[{"s":10,"d":2,"w":-3,"t":9223372036854775807}, {"s":18446744073709551615,"d":0,"w":-9223372036854775808,"t":1}]`,
		checkBatchBody)
	edits(`[{"kind":"delta_vertex","s":1,"d":2,"v":3,"path":[1,20],"edges":[[1,2]],"ts":-1,"te":5,`+
		`"ts2":6,"te2":7,"k":2,"dir":"in","candidates":[4]}, {}]`,
		func(t *testing.T, body []byte) { checkEnvelopeBody(t, srv, body) })
}

// TestQueryBatchRequestAllocs pins what one hot /v2/query request
// allocates: 16 weight-only items against a warm read cache, the cheapest
// of many runs like TestIngestRequestAllocs. The body buffer, the decoded
// batch and its path/edge backing, the planner's plan and the rendered
// answer are pooled, and at one P (testing.AllocsPerRun sets it) the
// planner spawns nothing; what is left is the test's request and recorder,
// the response header, and the planner's result slice.
func TestQueryBatchRequestAllocs(t *testing.T) {
	srv := codecServer(t)
	if err := srv.SetReadCache(1 << 20); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := hotQueryBody(16)
	rd := bytes.NewReader(body)
	var rec *httptest.ResponseRecorder
	// The recorder writes into one buffer grown up front: bytes.Buffer's
	// first growth past 64 bytes costs one allocation more under -race.
	var answer bytes.Buffer
	answer.Grow(1 << 10)
	post := func() {
		rd.Reset(body)
		answer.Reset()
		rec = httptest.NewRecorder()
		rec.Body = &answer
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", rd))
	}
	least := testing.AllocsPerRun(1, post)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, post))
	}
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("POST /v2/query = %d: %s", rec.Code, rec.Body)
	}
	const want = 19
	if least != want {
		t.Fatalf("one 16-item /v2/query request = %v allocs at best, want %d: does the envelope still go back to its pool, is the body still scanned rather than decoded, and does the planner still pool its plan and run inline at one P?", least, want)
	}
}

// hotQueryBody renders n weight-only items in the load generator's batch
// shape — 10 edge, 3 vertex_out, 1 vertex_in, 1 path, 1 subgraph per 16 —
// and its compact spelling.
func hotQueryBody(n int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		s, d := i%7+1, i%5+2
		switch i % 16 {
		default:
			fmt.Fprintf(&b, `{"kind":"edge","s":%d,"d":%d`, s, d)
		case 10, 11, 12:
			fmt.Fprintf(&b, `{"kind":"vertex_out","v":%d`, s)
		case 13:
			fmt.Fprintf(&b, `{"kind":"vertex_in","v":%d`, d)
		case 14:
			fmt.Fprintf(&b, `{"kind":"path","path":[%d,%d,%d,%d]`, s, d, s+1, d+1)
		case 15:
			fmt.Fprintf(&b, `{"kind":"subgraph","edges":[[%d,%d],[%d,%d],[%d,%d]]`, s, d, d, s, s+1, d)
		}
		b.WriteString(`,"ts":0,"te":300}`)
	}
	b.WriteByte(']')
	return b.Bytes()
}

// TestPooledScratchNotRetained: nothing keeps a reference into a request's
// body buffer, decoded batch or envelope scratch once its handler has
// returned. Whatever sits in the pools belongs to nobody, so between its
// own requests each client takes one of each and overwrites it to its full
// capacity; a committer, a cache entry or a planner goroutine still
// reading one is a wrong answer here and a data race under -race.
func TestPooledScratchNotRetained(t *testing.T) {
	srv := codecServer(t)
	if err := srv.SetReadCache(1 << 20); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	poison := func() {
		wb := wirePool.Get().(*wireBuf)
		overwrite(wb.b, 0xff)
		wirePool.Put(wb)
		b := batchPool.Get().(*batchBuf)
		overwrite(b.edges, stream.Edge{S: 1<<64 - 1, D: 1<<64 - 1, W: 1 << 40, T: -1})
		batchPool.Put(b)
		e := envelopePool.Get().(*envelope)
		overwrite(e.batch, query.Query{Kind: query.KindBurst, K: -1})
		overwrite(e.nums, 1<<64-1)
		overwrite(e.pairs, [2]uint64{1<<64 - 1, 1<<64 - 1})
		overwrite(e.idx, -1)
		envelopePool.Put(e)
	}
	// The answers of a fixed batch over vertices the writers never touch.
	body := hotQueryBody(32)
	want := serve(h, "/v2/query", body).Body.String()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ingest := fmt.Sprintf(`[{"s":%d,"d":%d,"w":1,"t":400},{"s":%d,"d":%d,"w":1,"t":400}]`, 1000+c, i, 2000+c, i)
				if rec := serve(h, "/v1/ingest", []byte(ingest)); rec.Code != http.StatusAccepted || rec.Body.String() != "{\"accepted\":2}\n" {
					t.Errorf("ingest: %d %q", rec.Code, rec.Body)
				}
				poison()
				if rec := serve(h, "/v2/query", body); rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("query answered %d %s, want %s", rec.Code, rec.Body, want)
				}
				poison()
			}
		}(c)
	}
	wg.Wait()
	srv.Pipeline().Flush()
	for c := 0; c < 4; c++ {
		q := fmt.Sprintf(`[{"kind":"vertex_out","v":%d,"ts":0,"te":500},{"kind":"vertex_out","v":%d,"ts":0,"te":500}]`, 1000+c, 2000+c)
		if got := serve(h, "/v2/query", []byte(q)).Body.String(); got != "[{\"weight\":50},{\"weight\":50}]\n" {
			t.Errorf("client %d's edges read back as %s", c, got)
		}
	}
}

// overwrite sets every element of s, up to its capacity, to v.
func overwrite[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestBatchPoolBound: a batch buffer grown past maxPooledEdges by one huge
// body is not pooled, so it never comes back to pin its memory under a
// later small request.
func TestBatchPoolBound(t *testing.T) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; i <= maxPooledEdges; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"s":1,"d":2,"w":3,"t":4}`)
	}
	body.WriteByte(']')
	b, err := decodeBatch(body.Bytes())
	if err != nil || len(b.edges) != maxPooledEdges+1 {
		t.Fatalf("decodeBatch: %d edges, %v", len(b.edges), err)
	}
	putBatch(b)
	for i := 0; i < 4; i++ {
		if c := cap(batchPool.Get().(*batchBuf).edges); c > maxPooledEdges {
			t.Fatalf("the pool handed back a batch buffer of capacity %d, past the %d bound", c, maxPooledEdges)
		}
	}
}

// BenchmarkDecodeBatch is the body decode of one 256-edge /v1/ingest
// request. indented is json.MarshalIndent's spelling, which the scanner
// reads too. folded-key differs from canonical in one byte — the last edge
// spells "S" — so it pays the scan up to there and then the whole
// encoding/json decode; reordered spells every edge s, d, t, w, which the
// scanner gives up on at the first edge. Those two rows are the cost of
// the fallback, which no BENCHMARK.json workload sends and only they show.
func BenchmarkDecodeBatch(b *testing.B) {
	edges := make([]stream.Edge, 256)
	for i := range edges {
		edges[i] = stream.Edge{S: uint64(1000 + i*7919%50000), D: uint64(1000 + i*104729%50000), W: int64(i%9 + 1), T: int64(1700000000 + i)}
	}
	canonical, err := json.Marshal(edges)
	if err != nil {
		b.Fatal(err)
	}
	last := bytes.LastIndex(canonical, []byte(`"s"`))
	folded := bytes.Clone(canonical)
	folded[last+1] = 'S'
	indented, err := json.MarshalIndent(edges, "", "\t")
	if err != nil {
		b.Fatal(err)
	}
	var reordered bytes.Buffer
	reordered.WriteByte('[')
	for i, e := range edges {
		if i > 0 {
			reordered.WriteByte(',')
		}
		fmt.Fprintf(&reordered, `{"s":%d,"d":%d,"t":%d,"w":%d}`, e.S, e.D, e.T, e.W)
	}
	reordered.WriteByte(']')
	for _, c := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"indented", indented}, {"folded-key", folded}, {"reordered", reordered.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				buf, err := decodeBatch(c.body)
				if err != nil || len(buf.edges) != len(edges) {
					b.Fatal(len(buf.edges), err)
				}
				putBatch(buf)
			}
		})
	}
}

// BenchmarkQueryEnvelope is the decode and the answer rendering of one
// 16-item /v2/query request in the load generator's 10/3/1/1/1 shape —
// everything the handler does around execute. one-bad-item replaces the
// last item's window with a float, which encoding/json reports in that
// item's slot: the fallback's cost on a body of this size.
func BenchmarkQueryEnvelope(b *testing.B) {
	srv := codecServer(b)
	st := srv.st.Load()
	canonical := hotQueryBody(16)
	bad := bytes.Replace(canonical, []byte(`"te":300}]`), []byte(`"te":3e2}]`), 1)
	for _, c := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"one-bad-item", bad}} {
		b.Run(c.name, func(b *testing.B) {
			results := make([]query.Result, 16)
			var resp []byte
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				env := envelopePool.Get().(*envelope)
				if !scanEnvelope(c.body, st, env) {
					env.reset()
					if err := env.decode(c.body, st); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if resp, err = appendAnswers(resp[:0], env, results[:len(env.batch)]); err != nil {
					b.Fatal(err)
				}
				putEnvelope(env)
			}
		})
	}
}
