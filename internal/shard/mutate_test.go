package shard

import (
	"bytes"
	"math"
	"os"
	"sync"
	"testing"

	"higgs/internal/stream"
)

// hookCall is one ApplyObserver callback as the recorder saw it.
type hookCall struct {
	shard int
	ver   uint64 // ShardVersion(shard) read from inside the callback
}

// recorder is an ApplyObserver that notes which shard it ran for and what
// the shard's version read at that moment. ShardVersion is a lock-free
// load, so reading it under the write lock is legal.
type recorder struct {
	s     *Summary
	mu    sync.Mutex // all-shard ops call back from one goroutine per shard
	calls []hookCall
}

func (r *recorder) ObserveApply(i int, _ []stream.Edge) {
	r.mu.Lock()
	r.calls = append(r.calls, hookCall{i, r.s.ShardVersion(i)})
	r.mu.Unlock()
}

// TestMutatorContract pins what Apply promises, through every public
// entry point (DESIGN.md §12, §16, §17): a shard's version advances by
// exactly one iff the op changed what queries may answer there; an applied
// batch reaches the observer inside the section, i.e. while ShardVersion
// still reads the old value, and nothing else reaches it; the addressed
// shards' watermarks become max(old, seq) and nobody else's moves. A
// sequenced op at or below a shard's watermark is a replay and moves
// nothing there. Stats and WriteTo take the read lock (Stats' seals go
// through core's latch) and, like reads, may move nothing.
func TestMutatorContract(t *testing.T) {
	const preSeq = 5 // every shard's watermark before the op under test
	st := testStream(t, 50, 2_000)
	last := st[len(st)-1]
	known := stream.Edge{S: 1, D: 2, W: 3, T: last.T + 1} // present, for Delete
	fresh := stream.Edge{S: 1, D: 7, W: 1, T: last.T + 2} // same shard as known
	early := st[0].T - 1                                  // expires nothing
	late := st[0].T + (last.T-st[0].T)*2/3                // expires whole subtrees

	cases := []struct {
		name string
		run  func(s *Summary, owner int)
		seq  uint64 // the sequence number the op carries
		all  bool   // addresses every shard; otherwise only known's
		hook bool   // the op reaches the observer
		// changes: the op is answer-changing on the shards it addresses;
		// partial: only on those where it reclaimed, at least one (an expire).
		changes, partial bool
	}{
		{name: "Insert", run: func(s *Summary, _ int) { s.Insert(fresh) }, hook: true, changes: true},
		{name: "InsertBatch", run: func(s *Summary, _ int) { s.InsertBatch(st) }, all: true, hook: true, changes: true},
		{name: "InsertShardAt/seq0", run: func(s *Summary, i int) { s.InsertShardAt(i, []stream.Edge{fresh}, 0) }, hook: true, changes: true},
		{name: "InsertShardAt/seq9", run: func(s *Summary, i int) { s.InsertShardAt(i, []stream.Edge{fresh}, 9) }, seq: 9, hook: true, changes: true},
		{name: "InsertShardAt/lower-seq", run: func(s *Summary, i int) { s.InsertShardAt(i, []stream.Edge{fresh}, 3) }, seq: 3},
		{name: "InsertShardAt/at-watermark", run: func(s *Summary, i int) { s.InsertShardAt(i, []stream.Edge{fresh}, preSeq) }, seq: preSeq},
		{name: "InsertShardAt/empty", run: func(s *Summary, i int) { s.InsertShardAt(i, nil, 9) }, seq: 9},
		{name: "Delete/hit", run: func(s *Summary, _ int) {
			if !s.Delete(known) {
				t.Error("Delete of a present edge reported not found")
			}
		}, changes: true},
		{name: "Delete/miss", run: func(s *Summary, _ int) {
			if s.Delete(stream.Edge{S: known.S, D: 9999, W: 5, T: known.T}) {
				t.Error("Delete of an absent edge reported found")
			}
		}},
		{name: "Apply/delete-seq9", run: func(s *Summary, i int) {
			if s.Apply(i, 9, stream.Mutation{Kind: stream.Delete, Edge: known}) != 1 {
				t.Error("sequenced delete of a present edge reported not found")
			}
		}, seq: 9, changes: true},
		{name: "Mutate/delete-replayed", run: func(s *Summary, _ int) {
			if s.Mutate(preSeq, stream.Mutation{Kind: stream.Delete, Edge: known}) != 0 {
				t.Error("replayed delete removed an edge")
			}
		}, seq: preSeq},
		{name: "Expire/reclaiming", run: func(s *Summary, _ int) { s.Expire(late) }, all: true, changes: true, partial: true},
		{name: "Expire/vacuous", run: func(s *Summary, _ int) {
			if n := s.Expire(early); n != 0 {
				t.Errorf("expire before the stream reclaimed %d leaves", n)
			}
		}, all: true},
		{name: "ExpireAt/reclaiming", run: func(s *Summary, _ int) { s.ExpireAt(late, 9) }, seq: 9, all: true, changes: true, partial: true},
		{name: "ExpireAt/vacuous", run: func(s *Summary, _ int) { s.ExpireAt(early, 9) }, seq: 9, all: true},
		{name: "ExpireAt/replayed", run: func(s *Summary, _ int) {
			if n := s.ExpireAt(late, 4); n != 0 {
				t.Errorf("replayed expire reclaimed %d leaves", n)
			}
		}, seq: 4, all: true},
		{name: "Apply/expire-reclaiming", run: func(s *Summary, i int) { s.Apply(i, 9, stream.Mutation{Kind: stream.Expire, Cutoff: late}) }, seq: 9, changes: true, partial: true},
		{name: "Apply/expire-vacuous", run: func(s *Summary, i int) { s.Apply(i, 9, stream.Mutation{Kind: stream.Expire, Cutoff: early}) }, seq: 9},
		{name: "Finalize", run: func(s *Summary, _ int) { s.Finalize() }, all: true, changes: true},
		{name: "Stats", run: func(s *Summary, _ int) { s.Stats() }, all: true},
		{name: "WriteTo", run: func(s *Summary, _ int) {
			if _, err := s.WriteTo(&bytes.Buffer{}); err != nil {
				t.Error(err)
			}
		}, all: true},
		{name: "reads", run: func(s *Summary, _ int) {
			s.EdgeWeight(1, 2, 0, last.T+10)
			s.VertexIn(2, 0, last.T+10)
			s.Items()
		}, all: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSharded(t, 2)
			groups := make([][]stream.Edge, s.NumShards())
			for _, e := range append(st[:len(st):len(st)], known) {
				i := s.ShardFor(e.S)
				groups[i] = append(groups[i], e)
			}
			for i, g := range groups {
				s.InsertShardAt(i, g, preSeq)
			}
			owner := s.ShardFor(known.S)
			rec := &recorder{s: s}
			s.SetApplyObserver(rec)
			verBefore := make([]uint64, s.NumShards())
			for i := range verBefore {
				verBefore[i] = s.ShardVersion(i)
			}

			tc.run(s, owner)

			notified := make(map[int]bool)
			for _, c := range rec.calls {
				if !tc.hook {
					t.Errorf("observer ran on shard %d for an op that applies no batch", c.shard)
				}
				if c.ver != verBefore[c.shard] {
					t.Errorf("hook on shard %d saw version %d, want the pre-op %d: it ran outside the write section", c.shard, c.ver, verBefore[c.shard])
				}
				if notified[c.shard] {
					t.Errorf("shard %d notified twice for one op", c.shard)
				}
				notified[c.shard] = true
			}
			advanced := 0
			for i := range verBefore {
				addressed := tc.all || i == owner
				delta := s.ShardVersion(i) - verBefore[i]
				switch {
				case delta > 1:
					t.Errorf("shard %d version advanced by %d for one op", i, delta)
				case delta == 1 && !(addressed && tc.changes):
					t.Errorf("shard %d version advanced by an op that changed no answer there", i)
				case delta == 0 && addressed && tc.changes && !tc.partial:
					t.Errorf("shard %d version did not advance past an answer-changing op", i)
				}
				if tc.hook && (delta == 1) != notified[i] {
					t.Errorf("shard %d: version advanced = %v but observer notified = %v", i, delta == 1, notified[i])
				}
				advanced += int(delta)

				wantSeq := uint64(preSeq)
				if addressed && tc.seq > wantSeq {
					wantSeq = tc.seq
				}
				if got := s.ShardSeq(i); got != wantSeq {
					t.Errorf("shard %d watermark = %d, want max(%d, seq) = %d", i, got, preSeq, wantSeq)
				}
			}
			if tc.changes && advanced == 0 {
				t.Errorf("answer-changing op advanced no version (did the expire reclaim nothing?)")
			}
		})
	}
}

// TestMutateMoves is the table behind the read cache's frozen entries
// (DESIGN.md §16), one row per way each stream.Kind can go: which of the
// shard's version, rewrite count and append frontier the op moves. An
// insert moves the version and — when it carries a newer timestamp — the
// frontier, never the rewrite count: that is what lets an entry over a
// closed window outlive it. Every other answer-changing op moves version
// and rewrite count together and leaves the frontier where the newest
// insert put it. An op that changed nothing moves nothing.
func TestMutateMoves(t *testing.T) {
	st := testStream(t, 50, 2_000)
	first, last := st[0].T, st[len(st)-1].T
	known := stream.Edge{S: 1, D: 2, W: 3, T: last}
	cases := []struct {
		name     string
		m        stream.Mutation
		one      bool   // Insert's single-edge form
		ver, rw  uint64 // how far each counter moves
		frontier int64
	}{
		{"insert/newer", stream.Mutation{Kind: stream.Insert, Edges: []stream.Edge{{S: 1, D: 7, W: 1, T: last + 5}}}, false, 1, 0, last + 5},
		{"insert/out-of-order", stream.Mutation{Kind: stream.Insert, Edges: []stream.Edge{{S: 1, D: 7, W: 1, T: first}}}, false, 1, 0, last},
		{"insert/empty", stream.Mutation{Kind: stream.Insert}, false, 0, 0, last},
		{"insertOne", stream.Mutation{Kind: stream.Insert, Edge: stream.Edge{S: 1, D: 7, W: 1, T: last + 9}}, true, 1, 0, last + 9},
		{"delete/found", stream.Mutation{Kind: stream.Delete, Edge: known}, false, 1, 1, last},
		{"delete/missed", stream.Mutation{Kind: stream.Delete, Edge: stream.Edge{S: 1, D: 9999, W: 1, T: last}}, false, 0, 0, last},
		{"expire/reclaiming", stream.Mutation{Kind: stream.Expire, Cutoff: first + (last-first)*2/3}, false, 1, 1, last},
		{"expire/vacuous", stream.Mutation{Kind: stream.Expire, Cutoff: first - 1}, false, 0, 0, last},
		{"finalize", stream.Mutation{Kind: stream.Finalize}, false, 1, 1, last},
	}
	covered := make(map[stream.Kind]bool)
	for _, tc := range cases {
		covered[tc.m.Kind] = true
		t.Run(tc.name, func(t *testing.T) {
			s := newSharded(t, 1)
			if f, rw := s.ShardFrontier(0); f != math.MinInt64 || rw != 0 {
				t.Fatalf("empty shard: frontier %d, %d rewrites; want MinInt64, 0", f, rw)
			}
			s.InsertShardAt(0, append(st[:len(st):len(st)], known), 0)
			ver := s.ShardVersion(0)
			if f, rw := s.ShardFrontier(0); f != last || rw != 0 {
				t.Fatalf("after the preload: frontier %d, %d rewrites; want %d, 0", f, rw, last)
			}

			s.apply(0, 0, tc.m, tc.one)

			f, rw := s.ShardFrontier(0)
			if dv := s.ShardVersion(0) - ver; dv != tc.ver || rw != tc.rw || f != tc.frontier {
				t.Fatalf("version +%d, rewrites +%d, frontier %d; want +%d, +%d, %d", dv, rw, f, tc.ver, tc.rw, tc.frontier)
			}
		})
	}
	for k := stream.Insert; k <= stream.Finalize; k++ {
		if !covered[k] {
			t.Errorf("stream.Kind %d has no row", k)
		}
	}
}

// TestMutateSplitsInserts: Mutate hands each shard its run of an insert
// at the sequence number of the run's last edge, so the shard's watermark
// lands exactly on a run boundary, and a replay of the same record — any
// overlap a recovery tail or a re-delivered replication chunk brings —
// is skipped whole, on every shard, while unlogged inserts still apply.
func TestMutateSplitsInserts(t *testing.T) {
	s := newSharded(t, 3)
	batch := testStream(t, 50, 300)
	const first = 11
	want := make([]uint64, s.NumShards())
	for j, e := range batch {
		want[s.ShardFor(e.S)] = first + uint64(j)
	}
	m := stream.Mutation{Kind: stream.Insert, Edges: batch}
	if n := s.Mutate(first, m); n != int64(len(batch)) {
		t.Fatalf("Mutate applied %d edges, want %d", n, len(batch))
	}
	vers := make([]uint64, s.NumShards())
	for i := range want {
		if got := s.ShardSeq(i); got != want[i] || want[i] == 0 {
			t.Fatalf("shard %d watermark = %d, want %d, its run's last sequence number", i, got, want[i])
		}
		vers[i] = s.ShardVersion(i)
	}
	if n := s.Mutate(first, m); n != 0 || s.Items() != int64(len(batch)) {
		t.Fatalf("replayed record applied %d edges (items %d), want 0 (%d)", n, s.Items(), len(batch))
	}
	for i, v := range vers {
		if s.ShardVersion(i) != v || s.ShardSeq(i) != want[i] {
			t.Fatalf("replay moved shard %d: version %d → %d, watermark %d", i, v, s.ShardVersion(i), s.ShardSeq(i))
		}
	}
	// The split's scratch is pooled: an unlogged batch after a logged one
	// must not inherit its sequence numbers and be skipped.
	s.InsertBatch(batch)
	if got := s.Items(); got != 2*int64(len(batch)) {
		t.Fatalf("items after an unlogged InsertBatch = %d, want %d", got, 2*len(batch))
	}
}

// TestDecodedSlotStartsAtItsFrontier: a slot built around restored contents
// publishes their frontier at once — the committed fixture's shards come
// back with the timestamp of the last edge each received — while version
// and rewrite count start over.
func TestDecodedSlotStartsAtItsFrontier(t *testing.T) {
	raw, err := os.ReadFile("testdata/sharded_v2.higgs")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	built, st := fixtureSet(t)
	newest := make([]int64, restored.NumShards())
	for _, e := range st { // time-ordered: the last edge of a shard is its newest
		newest[built.ShardFor(e.S)] = e.T
	}
	for i, want := range newest {
		if f, rw := restored.ShardFrontier(i); f != want || rw != 0 || restored.ShardVersion(i) != 0 {
			t.Errorf("decoded shard %d: frontier %d, %d rewrites, version %d; want %d, 0, 0", i, f, rw, restored.ShardVersion(i), want)
		}
	}
}

// TestInsertShardAtAllocs: a warm group commit — applying a batch that
// merges into existing leaf slots — must not allocate, with or without an
// observer registered: Apply's mutation must stay on the stack. Each
// commit carries the next sequence number, as a committer's do, so every
// one is applied rather than skipped as a replay.
func TestInsertShardAtAllocs(t *testing.T) {
	for _, observed := range []bool{false, true} {
		s, st := fixtureSet(t)
		if observed {
			s.SetApplyObserver(&countingObserver{})
		}
		lastEdge := st[len(st)-1]
		i := s.ShardFor(lastEdge.S)
		batch := []stream.Edge{lastEdge, lastEdge, lastEdge, lastEdge}
		seq := s.ShardSeq(i) + 1
		s.InsertShardAt(i, batch, seq)
		items := s.Items()
		const runs = 1000
		if n := testing.AllocsPerRun(runs, func() { seq++; s.InsertShardAt(i, batch, seq) }); n != 0 {
			t.Errorf("InsertShardAt (observer=%v) allocates %.2f allocs/op, want 0", observed, n)
		}
		// AllocsPerRun makes one warm-up call beyond runs.
		if got, want := s.Items()-items, int64(len(batch)*(runs+1)); got != want || s.ShardSeq(i) != seq {
			t.Fatalf("measured commits applied %d edges up to watermark %d, want %d up to %d: the pin timed skips", got, s.ShardSeq(i), want, seq)
		}
		if n := testing.AllocsPerRun(1000, func() { s.Insert(lastEdge) }); n != 0 {
			t.Errorf("Insert (observer=%v) allocates %.2f allocs/op, want 0", observed, n)
		}
	}
}

// countingObserver is the cheapest possible ApplyObserver.
type countingObserver struct{ applies, edges int }

func (c *countingObserver) ObserveApply(_ int, edges []stream.Edge) {
	c.applies++
	c.edges += len(edges)
}
