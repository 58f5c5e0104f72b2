package core

import (
	"math"
	"math/rand"
	"testing"

	"higgs/internal/stream"
)

// closedQuestion is one probe over a window that ended before the append
// frontier when it was asked, with the answer it got then.
type closedQuestion struct {
	op     int // 0 edge, 1 vertex-out, 2 vertex-in
	s, d   uint64
	ts, te int64
	want   int64
}

func (q closedQuestion) ask(s *Summary) int64 {
	switch q.op {
	case 0:
		return s.EdgeWeight(q.s, q.d, q.ts, q.te)
	case 1:
		return s.VertexOut(q.s, q.ts, q.te)
	default:
		return s.VertexIn(q.d, q.ts, q.te)
	}
}

// TestInsertsLeaveClosedWindowsAlone is the invariant the read cache's
// frozen entries lean on (DESIGN.md §16): once a window ends before
// Frontier(), no insert changes its answer — not a newer edge, not an
// out-of-order one (clamped up to the frontier), not a same-timestamp run
// that opens overflow blocks, not the leaf closes and level seals the
// stream causes along the way. Every question is re-asked after every later
// batch.
func TestInsertsLeaveClosedWindowsAlone(t *testing.T) {
	const vertices = 40
	for seed := int64(1); seed <= 4; seed++ {
		s := MustNew(smallConfig())
		rng := rand.New(rand.NewSource(seed))
		edge := func(t int64) stream.Edge {
			return stream.Edge{S: uint64(rng.Intn(vertices)), D: uint64(rng.Intn(vertices)), W: int64(rng.Intn(4) + 1), T: t}
		}

		if s.Frontier() != math.MinInt64 {
			t.Fatalf("empty summary: Frontier() = %d, want MinInt64", s.Frontier())
		}
		now := int64(1_000)
		var asked []closedQuestion
		for batch := 0; batch < 80; batch++ {
			for i := 0; i < 50; i++ {
				switch r := rng.Intn(16); {
				case r == 0: // same-timestamp run: overflows the leaf at one instant
					for j := 0; j < 24; j++ {
						s.Insert(edge(now))
					}
				case r < 3: // out of order: clamped up to the frontier
					s.Insert(edge(now - 1 - rng.Int63n(500)))
				default:
					now += rng.Int63n(4)
					s.Insert(edge(now))
				}
			}
			if got := s.Frontier(); got != now {
				t.Fatalf("seed %d batch %d: Frontier() = %d, newest accepted timestamp %d", seed, batch, got, now)
			}
			for _, q := range asked {
				if got := q.ask(s); got != q.want {
					t.Fatalf("seed %d batch %d: op %d (%d,%d) [%d,%d] answered %d before the window's frontier passed, %d now",
						seed, batch, q.op, q.s, q.d, q.ts, q.te, q.want, got)
				}
			}
			for i := 0; i < 12; i++ {
				// Windows of every length, a third of them ending on the
				// last instant the rule allows.
				te := now - 1 - rng.Int63n(now-999)
				if i%3 == 0 {
					te = now - 1
				}
				q := closedQuestion{op: i % 3, s: uint64(rng.Intn(vertices)), d: uint64(rng.Intn(vertices)),
					ts: te - rng.Int63n(te-900), te: te}
				q.want = q.ask(s)
				asked = append(asked, q)
			}
		}

		st := s.Stats()
		if st.Layers < 4 || st.SealedMatrices == 0 || st.OverflowBlocks == 0 || st.Clamped == 0 {
			t.Fatalf("seed %d: stream too tame to mean anything: %d layers, %d sealed aggregates, %d overflow blocks, %d clamped",
				seed, st.Layers, st.SealedMatrices, st.OverflowBlocks, st.Clamped)
		}
	}
}

// TestWindowEndingAtFrontierStillMoves pins why the rule is te < Frontier()
// and not te ≤: an edge may still arrive at exactly the frontier — directly,
// or out of order and clamped up to it — and it joins every window ending
// there. A cache that froze entries with te == frontier would serve the
// first answer below after both inserts.
func TestWindowEndingAtFrontierStillMoves(t *testing.T) {
	s := MustNew(DefaultConfig())
	for _, e := range denseStream(500, 30, 5_000, 41) {
		s.Insert(e)
	}
	f := s.Frontier()
	at, before := s.EdgeWeight(1, 2, 0, f), s.EdgeWeight(1, 2, 0, f-1)
	s.Insert(stream.Edge{S: 1, D: 2, W: 5, T: f})
	s.Insert(stream.Edge{S: 1, D: 2, W: 7, T: f - 100}) // clamped to f
	if s.Frontier() != f {
		t.Fatalf("Frontier() moved from %d to %d under inserts at or before it", f, s.Frontier())
	}
	if got := s.EdgeWeight(1, 2, 0, f); got != at+12 {
		t.Fatalf("window ending at the frontier: %d, want %d + 12 — both edges landed at T = frontier", got, at)
	}
	if got := s.EdgeWeight(1, 2, 0, f-1); got != before {
		t.Fatalf("window ending before the frontier moved from %d to %d", before, got)
	}
}
