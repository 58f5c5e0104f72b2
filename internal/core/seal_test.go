package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"higgs/internal/stream"
)

// sealCounts counts the closed non-leaf nodes whose aggregate is built and
// those whose aggregate is still pending. It reads the latches only, so it
// seals nothing.
func sealCounts(s *Summary) (sealed, pending int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 1 {
			return
		}
		if n.closed {
			if n.sealed() {
				sealed++
			} else {
				pending++
			}
		}
		for _, id := range s.ar.children(n) {
			walk(s.ar.node(nodeID(id)))
		}
	}
	if s.root != nil {
		walk(s.root)
	}
	return sealed, pending
}

// leafStarts returns the first timestamp of every leaf, oldest first.
func leafStarts(s *Summary) []int64 {
	var out []int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 1 {
			out = append(out, n.firstT)
			return
		}
		for _, id := range s.ar.children(n) {
			walk(s.ar.node(nodeID(id)))
		}
	}
	if s.root != nil {
		walk(s.root)
	}
	return out
}

// mutation is one step of a seal-timing script: an insert batch, a batch
// of deletes, or an expire.
type mutation struct {
	insert []stream.Edge
	delete []stream.Edge
	expire bool
	cutoff int64
}

func (m mutation) apply(s *Summary) (deleted, dropped int) {
	for _, e := range m.insert {
		s.Insert(e)
	}
	for _, e := range m.delete {
		if s.Delete(e) {
			deleted++
		}
	}
	if m.expire {
		dropped = s.Expire(m.cutoff)
	}
	return deleted, dropped
}

// read is one observation of a summary: probes over a window, Stats, or a
// version-1 snapshot, every aggregate included (appendV1). Its result is a
// string, so two observations compare with ==.
type read struct {
	kind   int // 0 probes, 1 Stats, 2 appendV1
	ts, te int64
	vs     [][2]uint64
}

func (r read) on(s *Summary) string {
	switch r.kind {
	case 1:
		st := s.Stats()
		st.HeapBytes = 0 // column indexes count once a VertexIn builds them
		return fmt.Sprintf("%+v", st)
	case 2:
		return string(appendV1(s))
	}
	var b bytes.Buffer
	for _, v := range r.vs {
		fmt.Fprintf(&b, "%d %d %d;", s.VertexOut(v[0], r.ts, r.te), s.VertexIn(v[1], r.ts, r.te),
			s.EdgeWeight(v[0], v[1], r.ts, r.te))
	}
	return b.String()
}

// TestSealTimingNeverChangesBytes: when an aggregate is built never shows.
// One summary takes a random script of inserts (same-timestamp runs that
// open overflow blocks among them), deletes (of inserted and of
// never-inserted items) and expires at leaf boundaries, with probes over
// random windows, Stats and snapshots interleaved at random. At every read,
// a twin replayed from the same mutations and never read before answers the
// same read the same: equal probe answers, equal Stats, equal version-1
// snapshot bytes. At the end, a twin that took every mutation alongside and
// no read encodes to the same version-1 bytes. Red without Delete's
// sealed-only rule (a seal after a delete subtracts twice) and without
// Expire's release (a straddling aggregate keeps its dropped children's
// weight).
func TestSealTimingNeverChangesBytes(t *testing.T) {
	small := DefaultConfig()
	small.D1 = 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"d1=4", small}} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				checkSealTiming(t, tc.cfg, seed)
			})
		}
	}
}

func checkSealTiming(t *testing.T, cfg Config, seed int64) {
	const (
		steps    = 240
		vertices = 400
	)
	rng := rand.New(rand.NewSource(seed))
	s, twin := MustNew(cfg), MustNew(cfg)
	var script []mutation
	var inserted []stream.Edge
	now, lastCut := int64(1000), int64(1000)
	edge := func(ts int64) stream.Edge {
		return stream.Edge{S: uint64(rng.Intn(vertices)), D: uint64(rng.Intn(vertices)), W: int64(1 + rng.Intn(4)), T: ts}
	}
	window := func() (int64, int64) {
		lo := lastCut - 20
		pick := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return lastCut + int64(rng.Intn(5)) - 2
			case 1:
				if ls := leafStarts(s); len(ls) > 0 {
					return ls[rng.Intn(len(ls))] + int64(rng.Intn(3)) - 1
				}
			}
			return lo + rng.Int63n(now-lo+40)
		}
		if rng.Intn(6) == 0 {
			return lo, now + 10
		}
		a, b := pick(), pick()
		return min(a, b), max(a, b)
	}
	var guard struct{ deletesSealed, deletesPending, releases, reads int }
	for step := 0; step < steps; step++ {
		var m mutation
		switch r := rng.Intn(20); {
		case r < 11: // a batch, partly at repeated timestamps
			for n := 1 + rng.Intn(120); n > 0; n-- {
				if rng.Intn(4) > 0 {
					now += int64(1 + rng.Intn(3))
				}
				m.insert = append(m.insert, edge(now))
			}
		case r < 13: // a run at one timestamp, long enough to overflow a leaf
			now++
			for n := 40 + rng.Intn(300); n > 0; n-- {
				m.insert = append(m.insert, edge(now))
			}
		case r < 18: // deletes: of inserted items, and of items never inserted
			for n := 1 + rng.Intn(6); n > 0 && len(inserted) > 0; n-- {
				e := inserted[rng.Intn(len(inserted))]
				if rng.Intn(2) == 0 { // a recent item: most likely still retained
					e = inserted[len(inserted)-1-rng.Intn(min(len(inserted), 4000))]
				}
				if rng.Intn(4) == 0 {
					e.S += vertices // a source the script never inserts
				}
				m.delete = append(m.delete, e)
			}
		default: // expire at a leaf boundary among the older three quarters
			ls := leafStarts(s)
			if len(ls) < 4 {
				continue
			}
			m.expire, m.cutoff = true, ls[rng.Intn(len(ls)*3/4)]
			lastCut = max(lastCut, m.cutoff)
		}
		script = append(script, m)
		inserted = append(inserted, m.insert...)
		sealed, pending := sealCounts(s)
		deleted, dropped := m.apply(s)
		if deleted > 0 && sealed > 0 {
			guard.deletesSealed++
		}
		if deleted > 0 && pending > 0 {
			guard.deletesPending++
		}
		if dropped > 0 && sealed > 0 {
			guard.releases++
		}
		m.apply(twin)
		// Reads, at random, on s alone; each is checked against a twin
		// replayed to this step that nothing has read.
		for rng.Intn(3) == 0 {
			r := read{kind: rng.Intn(5) - 2}
			if r.kind <= 0 {
				r.kind = 0
				r.ts, r.te = window()
				for i := 0; i < 8; i++ {
					r.vs = append(r.vs, [2]uint64{uint64(rng.Intn(vertices)), uint64(rng.Intn(vertices))})
				}
			}
			fresh := MustNew(cfg)
			for _, m := range script {
				m.apply(fresh)
			}
			if got, want := r.on(s), r.on(fresh); got != want {
				t.Fatalf("step %d: %s differs from an unread twin's (window [%d, %d])", step, []string{"probes", "Stats", "the snapshot"}[r.kind], r.ts, r.te)
			}
			guard.reads++
		}
	}
	if got, want := appendV1(s), appendV1(twin); !bytes.Equal(got, want) {
		t.Fatalf("after %d steps the snapshot is %d bytes, the unread twin's %d, and they differ", steps, len(got), len(want))
	}
	if s.Layers() < 3 || guard.deletesSealed == 0 || guard.deletesPending == 0 || guard.releases == 0 || guard.reads < steps/4 {
		t.Fatalf("vacuous script: %d layers, deletes over sealed (pending) aggregates %d (%d), %d expires over sealed aggregates, %d reads",
			s.Layers(), guard.deletesSealed, guard.deletesPending, guard.releases, guard.reads)
	}
}

// TestExpireKeepsInWindowAnswers: after Expire(c), every answer over
// [c, last] equals a twin's that never expired. Each expiring copy is
// decoded from one snapshot and fully sealed by Stats first (a decoded
// aggregate is pending, and an expire over pending aggregates passes
// without releasing any). The cutoffs are the first timestamps of the
// non-first children of closed level-2 nodes, so each expire leaves a node
// whose surviving children all start at or after the cutoff: a stale
// aggregate there would serve the whole window.
func TestExpireKeepsInWindowAnswers(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	cfg.D1 = 4
	ref := MustNew(cfg)
	for _, e := range st {
		ref.Insert(e)
	}
	snap := ref.AppendSnapshot(nil)
	last := st[len(st)-1].T
	var cuts []int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 2 && n.closed && n.firstT > st[len(st)/2].T {
			kids := ref.ar.children(n)
			for i := 1; i < len(kids) && len(cuts) < 14; i++ {
				prev, kid := ref.ar.node(nodeID(kids[i-1])), ref.ar.node(nodeID(kids[i]))
				if kid.firstT > prev.lastT {
					cuts = append(cuts, kid.firstT)
				}
			}
			return
		}
		for _, id := range ref.ar.children(n) {
			walk(ref.ar.node(nodeID(id)))
		}
	}
	walk(ref.root)
	if len(cuts) < 14 {
		t.Fatalf("found %d cutoffs, want 14", len(cuts))
	}
	// 400 sources, each with a destination it sends to after every cutoff.
	type pair struct{ s, d uint64 }
	var pairs []pair
	seen := map[uint64]bool{}
	for _, e := range st {
		if e.T >= cuts[len(cuts)-1] && !seen[e.S] && len(pairs) < 400 {
			seen[e.S] = true
			pairs = append(pairs, pair{e.S, e.D})
		}
	}
	if len(pairs) < 400 {
		t.Fatalf("found %d sources, want 400", len(pairs))
	}
	moved, worst := 0, int64(0)
	for _, c := range cuts {
		s, err := Decode(snap)
		if err != nil {
			t.Fatal(err)
		}
		s.Stats() // seals every closed node
		if s.Expire(c) == 0 {
			t.Fatalf("Expire(%d) dropped nothing", c)
		}
		for _, p := range pairs {
			dv := s.VertexOut(p.s, c, last) - ref.VertexOut(p.s, c, last)
			de := s.EdgeWeight(p.s, p.d, c, last) - ref.EdgeWeight(p.s, p.d, c, last)
			if dv != 0 || de != 0 {
				moved++
				worst = max(worst, dv, de, -dv, -de)
			}
		}
	}
	if moved > 0 {
		t.Fatalf("%d of %d (cutoff, source) pairs answer differently over [cutoff, last] after Expire, worst by %d",
			moved, len(cuts)*len(pairs), worst)
	}
}

// TestConcurrentFirstReads: first reads that race on one never-read
// summary — each one building, or waiting on, the aggregates it needs —
// answer what a twin read serially answers (run with -race).
func TestConcurrentFirstReads(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	cfg.D1 = 4
	s, twin := MustNew(cfg), MustNew(cfg)
	for _, e := range st {
		s.Insert(e)
		twin.Insert(e)
	}
	if sealed, pending := sealCounts(s); sealed != 0 || pending < 100 {
		t.Fatalf("%d sealed and %d pending aggregates before any read, want 0 and ≥ 100", sealed, pending)
	}
	ts, te := st[0].T, st[len(st)-1].T
	probe := func(s *Summary, i int) [3]int64 {
		e := st[i*len(st)/64]
		return [3]int64{s.VertexOut(e.S, ts, te), s.VertexIn(e.D, ts, te), s.EdgeWeight(e.S, e.D, ts, te)}
	}
	var want [64][3]int64
	for i := range want {
		want[i] = probe(twin, i)
	}
	const readers = 8
	start := make(chan struct{})
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range want {
				i := (k + g*8) % len(want)
				if got := probe(s, i); got != want[i] {
					errs <- fmt.Sprintf("reader %d, probe %d: %v, serial twin %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if _, pending := sealCounts(s); pending != 0 {
		t.Fatalf("%d aggregates still pending after whole-range reads", pending)
	}
}

// BenchmarkFirstRead is the seal bill: one whole-range VertexOut on a
// freshly ingested, never-read summary (lkml at 0.25, the default
// geometry), which builds every aggregate of the closed tree. Each
// iteration releases every aggregate first, untimed, as an Expire releases
// them, so the read finds the tree as ingest left it. ingest-ns is what
// ingesting the stream cost, once, so the two add up to what ingest and
// the first read cost together.
//
//	go test -run '^$' -bench FirstRead -benchmem ./internal/core
func BenchmarkFirstRead(b *testing.B) {
	st, cfg := loadFixtureStream(b)
	ts, te := st[0].T, st[len(st)-1].T
	t0 := time.Now()
	s := MustNew(cfg)
	for _, e := range st {
		s.Insert(e)
	}
	ingest := time.Since(t0)
	var closed []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.level > 1 && n.closed {
			closed = append(closed, n)
		}
		for _, id := range s.ar.children(n) {
			walk(s.ar.node(nodeID(id)))
		}
	}
	walk(s.root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, n := range closed {
			n.unseal()
		}
		b.StartTimer()
		s.VertexOut(st[0].S, ts, te)
	}
	b.ReportMetric(float64(ingest.Nanoseconds()), "ingest-ns")
}
