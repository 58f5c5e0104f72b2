// Package repl implements WAL-shipping replication (DESIGN.md §15): a
// primary that serves its summary plus its write-ahead log as a stream of
// typed, sequence-numbered records, and a follower that replays that
// stream through the per-shard watermark machinery (ingest.Applier) so a
// replica is provably at-a-known-sequence — and byte-identical to the
// primary at that sequence.
//
// The protocol is pull-based and stateless on the primary: a follower
// boots by fetching a snapshot (GET /repl/snapshot), then tails records
// (GET /repl/wal?after=N&wait=D) from its resume point. Only durable
// (fsync'd) records are ever shipped, so a follower can never get ahead
// of what the primary itself would recover to after a crash. When the
// requested records were truncated behind a snapshot, the primary answers
// 410 Gone and the follower re-fetches a snapshot — the same
// snapshot+tail recovery a reboot performs, over HTTP.
package repl

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"higgs/internal/httpapi"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

// SeqHeader carries the primary's durability frontier on every replication
// response, so a follower computes its lag from the response it already
// has instead of issuing a second request.
const SeqHeader = "X-Higgs-Synced-Seq"

// maxPollWait caps how long one /repl/wal request may long-poll; a
// follower wanting to wait longer simply asks again.
const maxPollWait = 30 * time.Second

// Primary serves a WAL-backed summary's replication feed. It performs no
// writes of its own: snapshots stream the live summary shard by shard, and
// record reads are bounded at the log's durability frontier (wal.ReadFrom),
// both safe against concurrent ingest. Register Handler on a separate
// listener (higgsd -replication-addr) — replication is an operator
// surface, not a client one.
type Primary struct {
	sum *shard.Summary
	log *wal.Log
}

// NewPrimary returns a primary over the pipeline's summary and log.
func NewPrimary(sum *shard.Summary, log *wal.Log) *Primary {
	return &Primary{sum: sum, log: log}
}

// Role names a server's place in replication, reported in /healthz.
const (
	// RoleStandalone is a server with no replication configured.
	RoleStandalone = "standalone"
	// RolePrimary serves a replication feed (higgsd -replication-addr).
	RolePrimary = "primary"
	// RoleFollower is a read-only replica (higgsd -replicate-from).
	RoleFollower = "follower"
)

// Status is the replication state /healthz reports in its "replication"
// field (DESIGN.md §15): the server's role and, for a follower, where it
// replicates from and how far behind it is.
type Status struct {
	// Role is RoleStandalone, RolePrimary, or RoleFollower.
	Role string `json:"role"`
	// Source is the primary's replication URL (followers only).
	Source string `json:"source,omitempty"`
	// AppliedSeq is the follower's position: every record at or below it
	// has been applied (or watermark-skipped as already present).
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// PrimarySeq is the primary's durability frontier — its own on a
	// primary, as of the last response received from it on a follower.
	PrimarySeq uint64 `json:"primary_seq,omitempty"`
	// Lag is max(PrimarySeq−AppliedSeq, 0) — how many sequence numbers the
	// follower trails the primary's durable state by.
	Lag uint64 `json:"lag,omitempty"`
	// Resyncs counts full snapshot re-fetches forced by 410 Gone
	// (followers only).
	Resyncs int64 `json:"resyncs,omitempty"`
}

// Status returns the primary's replication state.
func (p *Primary) Status() Status {
	return Status{Role: RolePrimary, PrimarySeq: p.log.SyncedSeq()}
}

// Handler returns the replication HTTP surface:
//
//	GET /repl/info      — JSON: retained floor, appended/synced frontiers, shards
//	GET /repl/snapshot  — binary summary snapshot (shard codec)
//	GET /repl/wal       — record stream after ?after=N, long-polling up to ?wait=D
func (p *Primary) Handler() http.Handler { return httpapi.Mux(p.routes(), false) }

func (p *Primary) routes() []httpapi.Route {
	return []httpapi.Route{
		{Path: "/repl/info", Method: http.MethodGet, Handle: p.handleInfo},
		{Path: "/repl/snapshot", Method: http.MethodGet, Handle: p.handleSnapshot},
		{Path: "/repl/wal", Method: http.MethodGet, Handle: p.handleWAL},
	}
}

func (p *Primary) handleInfo(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"first_seq":  p.log.FirstSeq(),
		"last_seq":   p.log.LastSeq(),
		"synced_seq": p.log.SyncedSeq(),
		"shards":     p.sum.NumShards(),
	})
	return nil
}

// handleSnapshot streams the summary's snapshot. Shards are encoded one at
// a time under their read locks, so the snapshot is per-shard consistent
// with an embedded watermark per shard — exactly what the follower's
// applier needs to replay the tail without double-applying (the same
// contract ingest.WriteSnapshot relies on for crash recovery).
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SeqHeader, strconv.FormatUint(p.log.SyncedSeq(), 10))
	// Headers are gone; a truncated body fails the follower's decode.
	_, _ = p.sum.WriteTo(w)
	return nil
}

// handleWAL streams every durable record after ?after=N (default 0) as the
// WAL's own bytes: the segment header, then the frames exactly as the
// segment files hold them (wal.ReadFrom). With ?wait=D and no new
// records, the request parks on the durability frontier up to D before
// answering — the follower's long-poll. 410 Gone means the records were
// truncated behind a snapshot: fetch /repl/snapshot and resume from its
// watermarks. The SeqHeader reports the frontier the stream was bounded
// at; a response may carry zero records (frontier unchanged).
func (p *Primary) handleWAL(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeBadRequest, "after: %v", err)
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		var err error
		if wait, err = time.ParseDuration(v); err != nil {
			return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeBadRequest, "wait: %v", err)
		}
		if wait > maxPollWait {
			wait = maxPollWait
		}
	}
	frontier := p.log.SyncedSeq()
	if frontier <= after && wait > 0 {
		frontier = p.log.WaitSyncedBeyond(after, wait)
	}
	if p.log.FirstSeq() > after+1 {
		return httpapi.Errorf(http.StatusGone, httpapi.CodeTruncated, "requested records truncated; fetch /repl/snapshot")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SeqHeader, strconv.FormatUint(frontier, 10))
	if _, err := w.Write(wal.Header()); err != nil {
		return nil // client went away
	}
	// A failure mid-stream (including a truncation race) cannot change the
	// status anymore; the torn body fails the follower's decode and it
	// retries, hitting the clean 410/error path.
	_, _ = p.log.ReadFrom(after, frontier, func(_ wal.Record, frame []byte) error {
		_, err := w.Write(frame)
		return err
	})
	return nil
}
