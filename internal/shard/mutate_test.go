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

// TestMutatorContract pins what mutate promises, through every public
// entry point (DESIGN.md §12, §16, §17): a shard's version advances by
// exactly one iff the op changed what queries may answer there; an applied
// batch reaches the observer inside the section, i.e. while ShardVersion
// still reads the old value, and nothing else reaches it; the addressed shards' watermarks
// become max(old, seq) and nobody else's moves. Stats and WriteTo take the
// write lock to seal aggregates but are answer-neutral, and reads are
// reads: none of them may move anything.
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
		{name: "InsertShardAt/lower-seq", run: func(s *Summary, i int) { s.InsertShardAt(i, []stream.Edge{fresh}, 3) }, seq: 3, hook: true, changes: true},
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
		{name: "Expire/reclaiming", run: func(s *Summary, _ int) { s.Expire(late) }, all: true, changes: true, partial: true},
		{name: "Expire/vacuous", run: func(s *Summary, _ int) {
			if n := s.Expire(early); n != 0 {
				t.Errorf("expire before the stream reclaimed %d leaves", n)
			}
		}, all: true},
		{name: "ExpireAt/reclaiming", run: func(s *Summary, _ int) { s.ExpireAt(late, 9) }, seq: 9, all: true, changes: true, partial: true},
		{name: "ExpireAt/vacuous", run: func(s *Summary, _ int) { s.ExpireAt(early, 9) }, seq: 9, all: true},
		{name: "ExpireShardAt/reclaiming", run: func(s *Summary, i int) { s.ExpireShardAt(i, late, 9) }, seq: 9, changes: true, partial: true},
		{name: "ExpireShardAt/vacuous", run: func(s *Summary, i int) { s.ExpireShardAt(i, early, 9) }, seq: 9},
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
// (DESIGN.md §16), one row per way each opKind can go: which of the shard's
// version, rewrite count and append frontier the op moves. An insert moves
// the version and — when it carries a newer timestamp — the frontier, never
// the rewrite count: that is what lets an entry over a closed window outlive
// it. Every other answer-changing op moves version and rewrite count
// together and leaves the frontier where the newest insert put it. An op
// that changed nothing moves nothing.
func TestMutateMoves(t *testing.T) {
	st := testStream(t, 50, 2_000)
	first, last := st[0].T, st[len(st)-1].T
	known := stream.Edge{S: 1, D: 2, W: 3, T: last}
	cases := []struct {
		name     string
		op       op
		ver, rw  uint64 // how far each counter moves
		frontier int64
	}{
		{"insert/newer", op{kind: opInsert, edges: []stream.Edge{{S: 1, D: 7, W: 1, T: last + 5}}}, 1, 0, last + 5},
		{"insert/out-of-order", op{kind: opInsert, edges: []stream.Edge{{S: 1, D: 7, W: 1, T: first}}}, 1, 0, last},
		{"insert/empty", op{kind: opInsert}, 0, 0, last},
		{"insertOne", op{kind: opInsertOne, edge: stream.Edge{S: 1, D: 7, W: 1, T: last + 9}}, 1, 0, last + 9},
		{"delete/found", op{kind: opDelete, edge: known}, 1, 1, last},
		{"delete/missed", op{kind: opDelete, edge: stream.Edge{S: 1, D: 9999, W: 1, T: last}}, 0, 0, last},
		{"expire/reclaiming", op{kind: opExpire, cutoff: first + (last-first)*2/3}, 1, 1, last},
		{"expire/vacuous", op{kind: opExpire, cutoff: first - 1}, 0, 0, last},
		{"finalize", op{kind: opFinalize}, 1, 1, last},
	}
	covered := make(map[opKind]bool)
	for _, tc := range cases {
		covered[tc.op.kind] = true
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

			s.mutate(0, 0, tc.op)

			f, rw := s.ShardFrontier(0)
			if dv := s.ShardVersion(0) - ver; dv != tc.ver || rw != tc.rw || f != tc.frontier {
				t.Fatalf("version +%d, rewrites +%d, frontier %d; want +%d, +%d, %d", dv, rw, f, tc.ver, tc.rw, tc.frontier)
			}
		})
	}
	for k := opInsert; k <= opFinalize; k++ {
		if !covered[k] {
			t.Errorf("opKind %d has no row", k)
		}
	}
}

// TestDecodedSlotStartsAtItsFrontier: a slot built around restored contents
// publishes their frontier at once — the pre-refactor fixture's shards come
// back with the timestamp of the last edge each received — while version
// and rewrite count start over.
func TestDecodedSlotStartsAtItsFrontier(t *testing.T) {
	raw, err := os.ReadFile("testdata/prerefactor_sharded.higgs")
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

// TestInsertShardAtAllocs: a warm group commit — re-applying a batch that
// merges into existing leaf slots — must not allocate, with or without an
// observer registered: mutate's op must stay on the stack.
func TestInsertShardAtAllocs(t *testing.T) {
	for _, observed := range []bool{false, true} {
		s, st := fixtureSet(t)
		if observed {
			s.SetApplyObserver(&countingObserver{})
		}
		lastEdge := st[len(st)-1]
		i := s.ShardFor(lastEdge.S)
		batch := []stream.Edge{lastEdge, lastEdge, lastEdge, lastEdge}
		s.InsertShardAt(i, batch, 1)
		if n := testing.AllocsPerRun(1000, func() { s.InsertShardAt(i, batch, 1) }); n != 0 {
			t.Errorf("InsertShardAt (observer=%v) allocates %.2f allocs/op, want 0", observed, n)
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
