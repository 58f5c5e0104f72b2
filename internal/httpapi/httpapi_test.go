package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// nopWriter is a ResponseWriter that keeps nothing, so the allocation
// count below is the mux's and the adapter's alone.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestMuxAddsNoAllocations: serving a request through the route table
// allocates exactly what a bare http.ServeMux with the same handler does —
// the adapter's closures and its 405/403 envelopes are built once, in Mux.
func TestMuxAddsNoAllocations(t *testing.T) {
	handled := 0
	table := Mux([]Route{
		{Path: "/x", Method: http.MethodGet, Handle: func(http.ResponseWriter, *http.Request) error { return nil }},
		{Path: "/x", Method: http.MethodPost, Write: true, Handle: func(http.ResponseWriter, *http.Request) error {
			handled++
			return nil
		}},
	}, false)
	bare := http.NewServeMux()
	bare.HandleFunc("/x", func(http.ResponseWriter, *http.Request) { handled++ })

	w := nopWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/x", nil)
	viaTable := testing.AllocsPerRun(200, func() { table.ServeHTTP(w, r) })
	viaBare := testing.AllocsPerRun(200, func() { bare.ServeHTTP(w, r) })
	if handled < 400 {
		t.Fatalf("handlers ran %d times, want every request served", handled)
	}
	if viaTable != viaBare {
		t.Errorf("route table: %v allocs/request, bare mux: %v", viaTable, viaBare)
	}
}

// TestMuxRendersHandlerErrors: what a handler returns is what the client
// reads — an *Err as its envelope (with the pacing header when it carries
// a hint), anything else as 500 internal — and the table's own rejections
// come in the order path, method, then replica.
func TestMuxRendersHandlerErrors(t *testing.T) {
	routes := []Route{
		{Path: "/shed", Method: http.MethodGet, Handle: func(http.ResponseWriter, *http.Request) error {
			return &Err{Status: http.StatusTooManyRequests, Code: CodeOverloaded, Msg: "busy", RetryAfterMS: 1500}
		}},
		{Path: "/boom", Method: http.MethodGet, Handle: func(http.ResponseWriter, *http.Request) error {
			return errors.New("disk on fire")
		}},
		{Path: "/write", Method: http.MethodPost, Write: true, Handle: func(w http.ResponseWriter, r *http.Request) error {
			return Errorf(http.StatusConflict, CodeWALOwned, "no %s", "uploads")
		}},
	}
	for _, tc := range []struct {
		readOnly     bool
		method, path string
		status       int
		want         Envelope
		retryAfter   string
	}{
		{false, "GET", "/shed", 429, Envelope{"busy", CodeOverloaded, 1500}, "2"},
		{false, "GET", "/boom", 500, Envelope{"disk on fire", CodeInternal, 0}, ""},
		{false, "POST", "/write", 409, Envelope{"no uploads", CodeWALOwned, 0}, ""},
		{true, "POST", "/write", 403, Envelope{"read-only replica: writes go to the primary", CodeReadOnlyReplica, 0}, ""},
		{true, "GET", "/write", 405, Envelope{"POST required", CodeMethodNotAllowed, 0}, ""},
		{true, "GET", "/shed", 429, Envelope{"busy", CodeOverloaded, 1500}, "2"},
		{false, "GET", "/nope", 404, Envelope{"no such endpoint: /nope", CodeNotFound, 0}, ""},
		{true, "POST", "/shed/", 404, Envelope{"no such endpoint: /shed/", CodeNotFound, 0}, ""},
	} {
		rec := httptest.NewRecorder()
		Mux(routes, tc.readOnly).ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		var got Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s %s: body %q: %v", tc.method, tc.path, rec.Body, err)
		}
		if rec.Code != tc.status || got != tc.want || rec.Header().Get("Retry-After") != tc.retryAfter ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s (readOnly=%v): %d %+v Retry-After=%q, want %d %+v %q",
				tc.method, tc.path, tc.readOnly, rec.Code, got, rec.Header().Get("Retry-After"), tc.status, tc.want, tc.retryAfter)
		}
	}
}
