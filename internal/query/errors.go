package query

import (
	"errors"
	"fmt"
)

// Stable machine-readable error codes. Every validation or execution
// failure in this package carries one; the HTTP layer copies it verbatim
// into the "code" field of its unified error envelope (DESIGN.md §17), so
// clients can branch on codes instead of parsing English.
const (
	// CodeMissingKind: the query has no kind (a JSON item without "kind").
	CodeMissingKind = "missing_kind"
	// CodeUnknownKind: the kind value is not a known query kind.
	CodeUnknownKind = "unknown_kind"
	// CodeZeroWindow: the window is the zero value {ts:0, te:0} — almost
	// always an item that never set its window, rejected explicitly rather
	// than silently answered 0.
	CodeZeroWindow = "zero_window"
	// CodeInvertedWindow: te < ts.
	CodeInvertedWindow = "inverted_window"
	// CodeShortPath: a path query with fewer than two vertices.
	CodeShortPath = "short_path"
	// CodeEmptySubgraph: a subgraph (or delta_edge) query with no edges.
	CodeEmptySubgraph = "empty_subgraph"
	// CodeMissingCandidates: a delta_vertex query with no candidate set and
	// no analytics engine to supply one.
	CodeMissingCandidates = "missing_candidates"
	// CodeTooManyCandidates: a candidate set over MaxCandidates.
	CodeTooManyCandidates = "too_many_candidates"
	// CodeBadTopK: k is negative or over MaxTopK.
	CodeBadTopK = "bad_topk"
	// CodeBadDirection: dir is neither "out" nor "in".
	CodeBadDirection = "bad_direction"
	// CodeAnalyticsDisabled: a kind that needs the analytics engine's
	// candidates (heavy_hitters, burst) reached an executor with none.
	CodeAnalyticsDisabled = "analytics_disabled"
)

// Error is a query error with a stable machine-readable code alongside its
// human-readable message. It is the concrete type behind every error this
// package returns.
type Error struct {
	Code string // one of the Code* constants
	msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.msg }

// errf builds an *Error with the given code.
func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, msg: fmt.Sprintf(format, args...)}
}

// ErrCode extracts the stable code from an error produced by this package,
// or "" when err is nil or carries no code.
func ErrCode(err error) string {
	var qe *Error
	if errors.As(err, &qe) {
		return qe.Code
	}
	return ""
}
