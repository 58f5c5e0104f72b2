package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

// localSnapshot names the follower's snapshot cache inside its state dir.
const localSnapshot = "follower.higgs"

// FollowerConfig parameterizes a follower. Zero fields select defaults.
type FollowerConfig struct {
	// Source is the base URL of the primary's replication listener
	// (higgsd -replication-addr), e.g. "http://primary:9090".
	Source string
	// Dir, when set, holds the follower's local snapshot cache: the boot
	// snapshot is persisted there and refreshed every SnapshotInterval, so
	// a restarted (even kill -9'd) follower resumes from its cache instead
	// of re-fetching the primary's full snapshot.
	Dir string
	// Client issues the HTTP requests (default: a client without timeouts,
	// which long-polling requires).
	Client *http.Client
	// PollWait is the long-poll duration requested from the primary when
	// the follower is caught up (default 2s).
	PollWait time.Duration
	// RetryInterval is the pause after a failed request or torn stream
	// before the follower retries (default 500ms).
	RetryInterval time.Duration
	// SnapshotInterval is the local snapshot cache cadence (0 = boot-time
	// snapshot only). Meaningful only with Dir set.
	SnapshotInterval time.Duration
	// OnError, when non-nil, observes background replication errors; the
	// tail loop keeps retrying, so a flaky network degrades to lag rather
	// than a dead follower.
	OnError func(error)
	// OnSwap, when non-nil, is called after a full resync replaced the
	// summary (the primary truncated past our resume point); the read-only
	// server swaps its served state here.
	OnSwap func(old, new *shard.Summary)
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	return c
}

// Follower replicates a primary's summary: boot = snapshot fetch (or local
// cache load) + tail, then live tailing with long-polls. The replicated
// summary (Summary) is safe for concurrent readers throughout — records
// apply under per-shard write locks, exactly like live ingest on the
// primary.
type Follower struct {
	cfg FollowerConfig

	sum     atomic.Pointer[shard.Summary]
	applier *ingest.Applier // Boot's, handed to the tail loop by Start
	applied atomic.Uint64
	primary atomic.Uint64
	resyncs atomic.Int64

	appliedMu   sync.Mutex
	appliedCond *sync.Cond

	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	started atomic.Bool
	once    sync.Once
}

// NewFollower validates the configuration and returns an unstarted
// follower; Boot performs the boot fetch and Start launches the tail loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Source == "" {
		return nil, errors.New("repl: Source must be set")
	}
	f := &Follower{cfg: cfg.withDefaults(), done: make(chan struct{})}
	f.appliedCond = sync.NewCond(&f.appliedMu)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f, nil
}

// Boot loads the local snapshot cache if present, else fetches the
// primary's snapshot, so a caller that gets a nil error holds a servable
// Summary. Nothing tails yet — and so nothing can resync and call OnSwap —
// until Start: whatever OnSwap needs (the server over Summary) is built in
// between.
func (f *Follower) Boot() error {
	sum, err := f.bootSummary()
	if err != nil {
		return err
	}
	f.sum.Store(sum)
	f.applier = ingest.NewApplier(sum)
	f.setApplied(f.applier.Position())
	return nil
}

// Start launches the tail loop, booting first unless Boot already has.
func (f *Follower) Start() error {
	if f.applier == nil {
		if err := f.Boot(); err != nil {
			return err
		}
	}
	f.started.Store(true)
	go f.run(f.applier)
	return nil
}

// bootSummary loads the local cache when possible, otherwise fetches from
// the primary (persisting the fetch when a cache dir is configured).
func (f *Follower) bootSummary() (*shard.Summary, error) {
	if f.cfg.Dir != "" {
		if sum, ok := f.loadLocal(); ok {
			return sum, nil
		}
	}
	return f.fetchSnapshot()
}

// loadLocal reads the snapshot cache; any failure (missing, torn by an
// interrupted write that never renamed, corrupt) falls back to a fetch.
func (f *Follower) loadLocal() (*shard.Summary, bool) {
	path := filepath.Join(f.cfg.Dir, localSnapshot)
	file, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer file.Close()
	sum, err := shard.Read(file)
	if err != nil {
		f.report(fmt.Errorf("repl: local snapshot %s: %w (re-fetching)", path, err))
		return nil, false
	}
	return sum, true
}

// fetchSnapshot downloads the primary's snapshot, teeing it into the local
// cache (atomically: temp file + rename) when a state dir is configured.
func (f *Follower) fetchSnapshot() (*shard.Summary, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Source+"/repl/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot: %w", err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: snapshot: primary answered %s", resp.Status)
	}
	f.notePrimarySeq(resp.Header)
	if f.cfg.Dir == "" {
		return shard.Read(resp.Body)
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: snapshot cache: %w", err)
	}
	path := filepath.Join(f.cfg.Dir, localSnapshot)
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot cache: %w", err)
	}
	sum, err := shard.Read(io.TeeReader(resp.Body, file))
	if err != nil {
		file.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("repl: snapshot: %w", err)
	}
	if err := file.Sync(); err == nil {
		err = file.Close()
		if err == nil {
			err = os.Rename(tmp, path)
		}
	} else {
		file.Close()
	}
	if err != nil {
		// The fetched summary is intact; only the cache write failed.
		os.Remove(tmp)
		f.report(fmt.Errorf("repl: snapshot cache: %w", err))
	} else {
		wal.SyncDir(f.cfg.Dir)
	}
	return sum, nil
}

// snapshotLocal refreshes the snapshot cache from the live summary. Shards
// are encoded one at a time under read locks, concurrent with the applier —
// the same consistency the primary's own background snapshotter relies on.
func (f *Follower) snapshotLocal() {
	if f.cfg.Dir == "" {
		return
	}
	if err := ingest.WriteSnapshot(f.sum.Load(), filepath.Join(f.cfg.Dir, localSnapshot)); err != nil {
		f.report(err)
	}
}

// run is the tail loop: long-poll the primary for records after our
// position, apply them through the watermark applier, refresh the local
// cache on cadence, resync from a fresh snapshot on 410.
func (f *Follower) run(a *ingest.Applier) {
	defer close(f.done)
	lastSnap := time.Now()
	for f.ctx.Err() == nil {
		gone, err := f.tailOnce(a)
		switch {
		case gone:
			na, rerr := f.resync()
			if rerr != nil {
				f.report(rerr)
				f.pause()
				continue
			}
			a = na
		case err != nil:
			if f.ctx.Err() != nil {
				return
			}
			f.report(err)
			f.pause()
		}
		if iv := f.cfg.SnapshotInterval; iv > 0 && time.Since(lastSnap) >= iv {
			f.snapshotLocal()
			lastSnap = time.Now()
		}
	}
}

// tailOnce issues one /repl/wal request and applies its records. gone
// reports a 410 (resync required).
func (f *Follower) tailOnce(a *ingest.Applier) (gone bool, err error) {
	after := a.Position()
	url := fmt.Sprintf("%s/repl/wal?after=%d&wait=%s", f.cfg.Source, after, f.cfg.PollWait)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, fmt.Errorf("repl: tail: %w", err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return false, fmt.Errorf("repl: tail: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return true, nil
	default:
		return false, fmt.Errorf("repl: tail: primary answered %s", resp.Status)
	}
	f.notePrimarySeq(resp.Header)
	_, err = wal.ReadFrames(resp.Body, func(rec wal.Record, _ []byte) error {
		if err := a.Apply(rec); err != nil {
			// A gap means this stream lost records; re-found via snapshot.
			f.report(err)
			gone = true
			return err
		}
		f.setApplied(a.Position())
		return nil
	})
	if gone {
		return true, nil
	}
	return false, err // a torn stream: retry from the applier's position
}

// resync re-fetches the primary's snapshot and swaps it in — the recovery
// path when the primary truncated past our resume point (410 Gone).
func (f *Follower) resync() (*ingest.Applier, error) {
	sum, err := f.fetchSnapshot()
	if err != nil {
		return nil, err
	}
	old := f.sum.Swap(sum)
	f.resyncs.Add(1)
	a := ingest.NewApplier(sum)
	// OnSwap runs before the new position is published, so a caller that
	// waits on WaitApplied sees the swap done.
	if f.cfg.OnSwap != nil {
		f.cfg.OnSwap(old, sum)
	}
	f.setApplied(a.Position())
	return a, nil
}

// pause sleeps RetryInterval or until Close.
func (f *Follower) pause() {
	t := time.NewTimer(f.cfg.RetryInterval)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
	}
}

func (f *Follower) report(err error) {
	if f.cfg.OnError != nil && err != nil {
		f.cfg.OnError(err)
	}
}

func (f *Follower) notePrimarySeq(h http.Header) {
	if v := h.Get(SeqHeader); v != "" {
		if seq, err := strconv.ParseUint(v, 10, 64); err == nil {
			for {
				cur := f.primary.Load()
				if seq <= cur || f.primary.CompareAndSwap(cur, seq) {
					break
				}
			}
		}
	}
}

func (f *Follower) setApplied(seq uint64) {
	f.appliedMu.Lock()
	if seq > f.applied.Load() {
		f.applied.Store(seq)
	}
	f.appliedCond.Broadcast()
	f.appliedMu.Unlock()
}

// Summary returns the replicated summary currently being served. A resync
// replaces it (see FollowerConfig.OnSwap).
func (f *Follower) Summary() *shard.Summary { return f.sum.Load() }

// Status returns the follower's replication state.
func (f *Follower) Status() Status {
	st := Status{
		Role:       RoleFollower,
		Source:     f.cfg.Source,
		AppliedSeq: f.applied.Load(),
		PrimarySeq: f.primary.Load(),
		Resyncs:    f.resyncs.Load(),
	}
	if st.PrimarySeq > st.AppliedSeq {
		st.Lag = st.PrimarySeq - st.AppliedSeq
	}
	return st
}

// WaitApplied blocks until the follower's position reaches seq or the
// timeout elapses, reporting whether it got there. It is how tests and the
// bench express "follower, catch up to S".
func (f *Follower) WaitApplied(seq uint64, timeout time.Duration) bool {
	f.appliedMu.Lock()
	defer f.appliedMu.Unlock()
	if f.applied.Load() >= seq {
		return true
	}
	var expired atomic.Bool
	t := time.AfterFunc(timeout, func() {
		expired.Store(true)
		f.appliedCond.Broadcast()
	})
	defer t.Stop()
	for f.applied.Load() < seq && !expired.Load() {
		f.appliedCond.Wait()
	}
	return f.applied.Load() >= seq
}

// Close stops the tail loop (canceling any in-flight long-poll) and waits
// for it to exit. The summary stays open and queryable; the caller owns
// closing it. Close does not refresh the snapshot cache — the cache is a
// resume optimization, and recovery must work from a stale one anyway.
func (f *Follower) Close() {
	f.once.Do(f.cancel)
	if f.started.Load() {
		<-f.done
	}
}
