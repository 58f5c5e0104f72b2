// Package httpapi holds the unified HTTP error envelope (DESIGN.md §17)
// shared by every endpoint surface — /v1/*, /v2/*, /repl/*, /healthz.
// Every non-2xx response in this repository is one JSON shape:
//
//	{"error": "<human message>", "code": "<stable machine code>", "retry_after_ms": <int, only on 429>}
//
// so clients branch on "code" instead of parsing English, and a single
// retry loop handles every endpoint's backpressure.
//
// It also holds the route table every HTTP surface is served from
// (DESIGN.md §10): a handler returns an error naming its status and code
// (*Err), and the one adapter in Mux renders it — along with the unknown
// path, method and read-only-replica rejections no handler checks for
// itself.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Stable envelope codes for failures that originate in the HTTP layer
// itself. Query-validation failures carry their own codes from
// internal/query (query.ErrCode); admission shed carries the codes below.
const (
	// CodeNotFound: no endpoint is served at the request's path.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeBadRequest: a malformed request the server refuses to guess at —
	// an undecodable body or parameter.
	CodeBadRequest = "bad_request"
	// CodeBodyTooLarge: the request body tripped an endpoint's byte cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeBadEnvelope: the /v2/query envelope is malformed (not a JSON
	// array, or over the batch item limit).
	CodeBadEnvelope = "bad_envelope"
	// CodeProbeBudget: a /v2/query envelope plans more per-shard probes
	// than one batch may.
	CodeProbeBudget = "probe_budget_exceeded"
	// CodeIngestBackpressure: a shard ingest queue is full; retry the same
	// batch after the hinted pause.
	CodeIngestBackpressure = "ingest_backpressure"
	// CodeRateLimited: the client's admission token bucket is empty.
	CodeRateLimited = "rate_limited"
	// CodeOverloaded: an admission concurrency budget (and its wait queue)
	// is full.
	CodeOverloaded = "overloaded"
	// CodeReadOnlyReplica: a write reached a read-only replica.
	CodeReadOnlyReplica = "read_only_replica"
	// CodeShuttingDown: the server is draining for shutdown.
	CodeShuttingDown = "shutting_down"
	// CodeWALOwned: snapshot upload rejected because the WAL owns the
	// durable state.
	CodeWALOwned = "wal_owned"
	// CodeTruncated: a /repl/wal resume point was truncated away; the
	// follower must resync from /repl/snapshot.
	CodeTruncated = "truncated"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// Envelope is the wire shape of every non-2xx response.
type Envelope struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Err is a handler's failure: the status and stable code of the envelope
// Mux writes for it. A positive RetryAfterMS is a client pacing hint,
// sent as retry_after_ms plus the standard Retry-After header (whole
// seconds, rounded up).
type Err struct {
	Status       int
	Code         string
	Msg          string
	RetryAfterMS int64
}

func (e *Err) Error() string { return e.Msg }

// Errorf builds an *Err, returned as error so that a handler's nil stays
// nil.
func Errorf(status int, code, format string, args ...any) error {
	return &Err{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

func (e *Err) write(w http.ResponseWriter) {
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((e.RetryAfterMS+999)/1000, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(Envelope{Error: e.Msg, Code: e.Code, RetryAfterMS: e.RetryAfterMS})
}

// Route is one row of an HTTP surface: Handle serves Method requests for
// Path. Write marks a row that changes the served state, which a read-only
// replica refuses. A path served under two methods is two rows.
type Route struct {
	Path   string
	Method string
	Write  bool
	Handle func(w http.ResponseWriter, r *http.Request) error
}

// Mux serves a route table. Everything is resolved here, once; a request
// costs the mux lookup and a scan of its path's one or two rows. In order,
// a request to a path no row serves answers 404, one whose method matches
// no row of its path 405, a Write row on a readOnly surface 403, and a
// non-nil error from Handle is rendered as its envelope — a plain error as
// 500 internal. A handler that has started its response body must return
// nil.
func Mux(routes []Route, readOnly bool) *http.ServeMux {
	byPath := make(map[string][]Route)
	for _, rt := range routes {
		byPath[rt.Path] = append(byPath[rt.Path], rt)
	}
	mux := http.NewServeMux()
	for path, rows := range byPath {
		methods := make([]string, len(rows))
		for i, rt := range rows {
			methods[i] = rt.Method
		}
		wrongMethod := &Err{Status: http.StatusMethodNotAllowed, Code: CodeMethodNotAllowed,
			Msg: strings.Join(methods, " or ") + " required"}
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			for i := range rows {
				if rows[i].Method == r.Method {
					if err := rows[i].serve(w, r, readOnly); err != nil {
						err.write(w)
					}
					return
				}
			}
			wrongMethod.write(w)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		(&Err{Status: http.StatusNotFound, Code: CodeNotFound, Msg: "no such endpoint: " + r.URL.Path}).write(w)
	})
	return mux
}

var errReadOnly = &Err{Status: http.StatusForbidden, Code: CodeReadOnlyReplica,
	Msg: "read-only replica: writes go to the primary"}

// serve runs the row's handler and returns the failure to render, if any.
func (rt *Route) serve(w http.ResponseWriter, r *http.Request, readOnly bool) *Err {
	if rt.Write && readOnly {
		return errReadOnly
	}
	err := rt.Handle(w, r)
	if err == nil {
		return nil
	}
	var e *Err
	if !errors.As(err, &e) {
		e = &Err{Status: http.StatusInternalServerError, Code: CodeInternal, Msg: err.Error()}
	}
	return e
}
