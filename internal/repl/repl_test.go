package repl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"higgs/internal/httpapi"
	"higgs/internal/ingest"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// primaryRig is a WAL-backed primary: sync-mode pipeline (every Submit is
// applied and fsync'd before returning), replication handler on httptest.
type primaryRig struct {
	sum  *shard.Summary
	log  *wal.Log
	pipe *ingest.Pipeline
	srv  *httptest.Server
	dir  string
}

func newPrimaryRig(t *testing.T, shards int, segBytes int64) *primaryRig {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal"), SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(sum, ingest.Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPrimary(sum, log).Handler())
	t.Cleanup(func() {
		srv.Close()
		pipe.Close()
		log.Close()
	})
	return &primaryRig{sum: sum, log: log, pipe: pipe, srv: srv, dir: dir}
}

// snap truncates the WAL behind a snapshot, exactly like the production
// background snapshotter.
func (p *primaryRig) snap(t *testing.T) {
	t.Helper()
	snapper := ingest.NewSnapshotter(p.sum, p.pipe, p.log, filepath.Join(p.dir, "snap.higgs"), 0, nil)
	defer snapper.Close()
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
}

func testStream(t *testing.T, edges int) stream.Stream {
	t.Helper()
	s, err := stream.Generate(stream.Config{
		Nodes: 150, Edges: edges, Span: 5000, Skew: 2.0, Variance: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feed submits st[lo:hi] in fixed batches with one expire interleaved
// mid-range when cutoff is nonzero.
func (p *primaryRig) feed(t *testing.T, st stream.Stream, lo, hi int, cutoff int64) {
	t.Helper()
	const batch = 64
	mid := (lo + hi) / 2
	for at := lo; at < hi; at += batch {
		end := at + batch
		if end > hi {
			end = hi
		}
		if _, err := p.pipe.Submit(st[at:end]); err != nil {
			t.Fatal(err)
		}
		if cutoff != 0 && at <= mid && mid < end {
			if _, err := p.pipe.Expire(cutoff); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// summaryBytes serializes a summary without finalizing, so live and
// replicated summaries stay comparable mid-stream.
func summaryBytes(t *testing.T, s *shard.Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// converge waits for the follower to reach the primary's last sequence and
// byte-compares the two summaries at that point.
func converge(t *testing.T, p *primaryRig, f *Follower) {
	t.Helper()
	target := p.log.LastSeq()
	if !f.WaitApplied(target, 30*time.Second) {
		t.Fatalf("follower stuck at %d, want %d", f.Status().AppliedSeq, target)
	}
	p.pipe.Flush() // the follower applied every durable record; so must the primary
	want := summaryBytes(t, p.sum)
	got := summaryBytes(t, f.Summary())
	if !bytes.Equal(got, want) {
		t.Fatalf("follower summary at seq %d differs from primary (%d vs %d bytes)", target, len(got), len(want))
	}
	st := f.Status()
	if st.AppliedSeq < target {
		t.Fatalf("status applied %d < target %d", st.AppliedSeq, target)
	}
	if st.PrimarySeq < target {
		t.Fatalf("status primary seq %d < target %d", st.PrimarySeq, target)
	}
}

func newFollowerT(t *testing.T, cfg FollowerConfig) *Follower {
	t.Helper()
	f := bootFollowerT(t, cfg)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

// bootFollowerT is newFollowerT without Start: the follower holds its boot
// position until the caller starts its tail loop.
func bootFollowerT(t *testing.T, cfg FollowerConfig) *Follower {
	t.Helper()
	cfg.PollWait = 100 * time.Millisecond
	cfg.RetryInterval = 20 * time.Millisecond
	cfg.OnError = func(err error) { t.Logf("follower: %v", err) }
	f, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFollowerLiveTail joins an empty primary and tails the whole stream —
// edge batches and an expire — live.
func TestFollowerLiveTail(t *testing.T) {
	p := newPrimaryRig(t, 4, 0)
	st := testStream(t, 3000)
	f := newFollowerT(t, FollowerConfig{Source: p.srv.URL})
	p.feed(t, st, 0, len(st), st[len(st)/4].T)
	converge(t, p, f)
	if n := f.Status().Resyncs; n != 0 {
		t.Fatalf("live tail needed %d resyncs", n)
	}
}

// TestFollowerSnapshotCatchUp joins mid-stream after the primary truncated
// its log behind a snapshot, so boot MUST come from /repl/snapshot.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	p := newPrimaryRig(t, 4, 4<<10)
	st := testStream(t, 3000)
	half := len(st) / 2
	p.feed(t, st, 0, half, st[len(st)/8].T)
	p.snap(t)
	if floor := p.log.FirstSeq(); floor <= 1 {
		t.Fatal("truncation did not advance the floor; catch-up would not exercise the snapshot")
	}
	f := newFollowerT(t, FollowerConfig{Source: p.srv.URL})
	p.feed(t, st, half, len(st), 0)
	converge(t, p, f)
	// Vacuity guard: the tail must have been a strict subset of the stream.
	if a := f.Status().AppliedSeq; a <= uint64(half) {
		t.Fatalf("applied seq %d implies no tail was replayed", a)
	}
}

// TestFollowerRestartResume restarts a follower from its local snapshot
// cache: the resumed tail overlaps records the first incarnation already
// applied, and the watermark skip must de-duplicate them exactly.
func TestFollowerRestartResume(t *testing.T) {
	p := newPrimaryRig(t, 2, 0)
	st := testStream(t, 3000)
	half := len(st) / 2
	p.feed(t, st, 0, half, st[len(st)/8].T)

	dir := t.TempDir()
	f1 := newFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	if !f1.WaitApplied(p.log.LastSeq(), 30*time.Second) {
		t.Fatal("first incarnation never caught up")
	}
	// More records arrive, the follower applies past its boot cache...
	p.feed(t, st, half, half+half/2, 0)
	if !f1.WaitApplied(p.log.LastSeq(), 30*time.Second) {
		t.Fatal("first incarnation never caught up past the cache point")
	}
	cachedAt := f1.Status().AppliedSeq
	// ...and dies without refreshing the cache.
	f1.Close()

	p.feed(t, st, half+half/2, len(st), 0)
	// Read the boot position before the tail loop starts: once it runs, it
	// can apply the whole tail before the check.
	f2 := bootFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	if boot := f2.Status().AppliedSeq; boot >= cachedAt {
		t.Fatalf("restart booted at %d, want a stale cache below %d (no overlap to de-duplicate)", boot, cachedAt)
	}
	if err := f2.Start(); err != nil {
		t.Fatal(err)
	}
	converge(t, p, f2)
	if n := f2.Status().Resyncs; n != 0 {
		t.Fatalf("restart resume needed %d resyncs", n)
	}
}

// TestFollowerRefetchesOverVersion1Cache: a snapshot cache written before
// core snapshot version 2 (the committed 4-shard fixture, whose core blobs
// carry aggregates) is refused on load, reported with the version it
// carries, and the follower boots from the primary's snapshot instead.
func TestFollowerRefetchesOverVersion1Cache(t *testing.T) {
	p := newPrimaryRig(t, 4, 0)
	st := testStream(t, 3000)
	p.feed(t, st, 0, len(st)/2, 0)
	dir := t.TempDir()
	v1, err := os.ReadFile("../shard/testdata/prerefactor_sharded.higgs")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, localSnapshot), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var reported []string
	f, err := NewFollower(FollowerConfig{
		Source: p.srv.URL, Dir: dir, PollWait: 100 * time.Millisecond, RetryInterval: 20 * time.Millisecond,
		OnError: func(err error) { reported = append(reported, err.Error()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if len(reported) != 1 || !strings.Contains(reported[0], "snapshot version: got 1, want 2") {
		t.Fatalf("boot reported %q, want one refusal of the cache naming core version 1", reported)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	p.feed(t, st, len(st)/2, len(st), 0)
	converge(t, p, f)
}

// TestFollowerResyncOn410 restarts a follower whose resume point the
// primary truncated away; the 410 path must re-bootstrap via snapshot.
func TestFollowerResyncOn410(t *testing.T) {
	p := newPrimaryRig(t, 2, 2<<10)
	st := testStream(t, 3000)
	third := len(st) / 3
	p.feed(t, st, 0, third, 0)

	dir := t.TempDir()
	f1 := newFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	if !f1.WaitApplied(p.log.LastSeq(), 30*time.Second) {
		t.Fatal("first incarnation never caught up")
	}
	f1.Close()

	// The primary moves far ahead and truncates behind a snapshot.
	p.feed(t, st, third, len(st), st[len(st)/8].T)
	p.snap(t)
	if floor := p.log.FirstSeq(); floor <= uint64(third) {
		t.Fatalf("floor %d did not pass the first incarnation's position %d", floor, third)
	}

	f2 := newFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	converge(t, p, f2)
	if n := f2.Status().Resyncs; n < 1 {
		t.Fatal("truncated resume point did not force a resync")
	}
}

// TestFollowerOnSwapOwnsOldSummary checks the resync swap contract: with
// an OnSwap callback installed, the old summary is handed over to it.
func TestFollowerOnSwapOwnsOldSummary(t *testing.T) {
	p := newPrimaryRig(t, 1, 1<<10)
	st := testStream(t, 1200)
	third := len(st) / 3
	p.feed(t, st, 0, third, 0)

	dir := t.TempDir()
	f1 := newFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	if !f1.WaitApplied(p.log.LastSeq(), 30*time.Second) {
		t.Fatal("never caught up")
	}
	f1.Close()
	p.feed(t, st, third, len(st), 0)
	p.snap(t)

	swapped := make(chan *shard.Summary, 1)
	f2 := newFollowerT(t, FollowerConfig{
		Source: p.srv.URL,
		Dir:    dir,
		OnSwap: func(old, new *shard.Summary) {
			swapped <- old
		},
	})
	converge(t, p, f2)
	select {
	case old := <-swapped:
		if old == f2.Summary() {
			t.Fatal("OnSwap received the new summary as old")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("resync did not invoke OnSwap")
	}
}

// TestFollowerBootThenStart is higgsd's wiring: what OnSwap needs (there,
// the server over the booted summary) is built between Boot and Start, with
// no synchronization of its own — Boot tails nothing, so no resync can fire
// before Start, and starting the tail loop orders the assignment before
// every OnSwap call (run with -race). The follower boots from a cache the
// primary has truncated past, so the first tail request forces the swap.
func TestFollowerBootThenStart(t *testing.T) {
	p := newPrimaryRig(t, 1, 1<<10)
	st := testStream(t, 1200)
	third := len(st) / 3
	p.feed(t, st, 0, third, 0)
	// f1's boot snapshot is the cache f2 boots from, so it must hold all
	// of the first third: a committer still holding the last batch would
	// leave it short of the position asserted below.
	p.pipe.Flush()

	dir := t.TempDir()
	f1 := newFollowerT(t, FollowerConfig{Source: p.srv.URL, Dir: dir})
	if !f1.WaitApplied(p.log.LastSeq(), 30*time.Second) {
		t.Fatal("never caught up")
	}
	f1.Close()
	p.feed(t, st, third, len(st), 0)
	p.snap(t)

	var served *shard.Summary
	f2, err := NewFollower(FollowerConfig{
		Source:        p.srv.URL,
		Dir:           dir,
		PollWait:      100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		OnSwap: func(old, new *shard.Summary) {
			if served != old {
				t.Errorf("OnSwap(old=%p) while serving %p", old, served)
			}
			served = new
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Boot(); err != nil {
		t.Fatal(err)
	}
	if got := f2.Status(); got.AppliedSeq != uint64(third) || got.Resyncs != 0 {
		t.Fatalf("after Boot: %+v, want the cached position %d and no resync", got, third)
	}
	served = f2.Summary()
	if err := f2.Start(); err != nil {
		t.Fatal(err)
	}
	converge(t, p, f2)
	f2.Close() // the tail loop has exited: reading served is ordered after its writes
	if served != f2.Summary() || f2.Status().Resyncs < 1 {
		t.Fatalf("serving %p, follower holds %p after %d resyncs", served, f2.Summary(), f2.Status().Resyncs)
	}
}

// TestRoutesRejectOtherMethods walks the route table: the feed is
// read-only, so every row is a GET and anything else answers the 405
// envelope — a row added later included.
func TestRoutesRejectOtherMethods(t *testing.T) {
	p := newPrimaryRig(t, 2, 1<<20)
	for _, rt := range NewPrimary(p.sum, p.log).routes() {
		if rt.Method != http.MethodGet || rt.Write {
			t.Fatalf("%s %s (write=%v): the replication feed serves reads only", rt.Method, rt.Path, rt.Write)
		}
		for _, m := range []string{"POST", "PUT", "DELETE"} {
			req, err := http.NewRequest(m, p.srv.URL+rt.Path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env httpapi.Envelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || err != nil || env.Code != httpapi.CodeMethodNotAllowed {
				t.Fatalf("%s %s: status %d, envelope %+v (%v)", m, rt.Path, resp.StatusCode, env, err)
			}
		}
	}
}

// TestFollowerReplaysDeletes: a delete on the primary is a record like any
// other — a follower that tailed it live, and one that booted from a
// snapshot taken between an edge's insert and its delete, both byte-equal
// the primary at applied_seq, and neither still answers for the deleted
// edge.
func TestFollowerReplaysDeletes(t *testing.T) {
	p := newPrimaryRig(t, 4, 0)
	st := testStream(t, 2000)
	live := newFollowerT(t, FollowerConfig{Source: p.srv.URL})
	p.feed(t, st, 0, 1000, 0)
	gone := stream.Edge{S: 1 << 40, D: 1 << 41, W: 7, T: st[999].T}
	if _, err := p.pipe.Submit([]stream.Edge{gone}); err != nil {
		t.Fatal(err)
	}
	p.pipe.Flush()
	late := newFollowerT(t, FollowerConfig{Source: p.srv.URL}) // its boot snapshot holds the edge
	for _, e := range []stream.Edge{gone, st[10], {S: 1 << 42, D: 1, W: 1, T: 1}} {
		if _, err := p.pipe.Delete(e); err != nil {
			t.Fatal(err)
		}
	}
	p.feed(t, st, 1000, len(st), 0)
	for name, f := range map[string]*Follower{"live": live, "late": late} {
		converge(t, p, f)
		if w := f.Summary().EdgeWeight(gone.S, gone.D, 0, gone.T); w != 0 {
			t.Fatalf("%s follower still holds the deleted edge (weight %d)", name, w)
		}
	}
}

// TestWALBodyIsSegmentBytes: what /repl/wal serves is the header plus the
// byte range of the segment file holding the requested records — no
// decode, no re-encode, no second CRC.
func TestWALBodyIsSegmentBytes(t *testing.T) {
	p := newPrimaryRig(t, 2, 0)
	st := testStream(t, 300)
	p.feed(t, st, 0, len(st), st[len(st)/4].T)
	if _, err := p.pipe.Delete(st[3]); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(p.dir, "wal", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, err = %v; want one", segs, err)
	}
	segment, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, by sequence number, from the one parser.
	hdr := int64(len(wal.Header()))
	ends := map[uint64]int64{0: hdr}
	end := hdr
	if _, err := wal.ReadFrames(bytes.NewReader(segment), func(rec wal.Record, frame []byte) error {
		end += int64(len(frame))
		ends[rec.LastSeq()] = end
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int(end) != len(segment) || len(ends) < 4 {
		t.Fatalf("parsed %d of %d segment bytes into %d frames", end, len(segment), len(ends)-1)
	}
	for after, from := range ends {
		resp, err := http.Get(p.srv.URL + "/repl/wal?after=" + strconv.FormatUint(after, 10))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("after=%d: status %d, err %v", after, resp.StatusCode, err)
		}
		if want := append(wal.Header(), segment[from:]...); !bytes.Equal(body, want) {
			t.Fatalf("after=%d: body is %d bytes, want header + segment[%d:] (%d bytes)", after, len(body), from, len(want))
		}
	}
}
