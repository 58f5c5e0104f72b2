package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkFilter fails unless m's presence filter passes the source, the
// destination and the edge of every slot entry m holds.
func checkFilter(t testing.TB, m *Matrix, step string) {
	t.Helper()
	d := int(m.cfg.D)
	for bkt, fill := range m.fills {
		for k := bkt * m.cfg.B; k < bkt*m.cfg.B+int(fill); k++ {
			i, j := int(m.idxs[k]>>4), int(m.idxs[k]&0xf)
			src := m.spillKey(uint32(m.keys[k]), m.lcg.Base(uint32(bkt/d), i))
			dst := m.spillKey(uint32(m.keys[k]>>32), m.lcg.Base(uint32(bkt%d), j))
			if !m.mayHoldEdge(src, dst) { // the edge's item and both endpoints'
				t.Fatalf("%s: the filter rules out slot %d (source %#x, destination %#x)", step, k, src, dst)
			}
		}
	}
}

// TestFilterHasNoFalseNegatives: whatever put an entry in a slot — a new
// Add, a Decode — the filter passes its three items, and merges, a Sub to
// weight 0 and a round trip through the pool lose none of them. A slab
// drawn back from the pool carries no bit of its previous matrix: its
// filter ends up exactly as a fresh matrix's given the same stream.
func TestFilterHasNoFalseNegatives(t *testing.T) {
	cfg := testCfg()
	p := NewPool()
	rng := rand.New(rand.NewSource(5))
	fill := func(m *Matrix, rng *rand.Rand) []refKey {
		var stored []refKey
		for refused := 0; refused < 20; {
			k := refKey{uint32(rng.Intn(1 << cfg.FBits)), uint32(rng.Intn(64)), uint32(rng.Intn(1 << cfg.FBits)), uint32(rng.Intn(64)), uint32(rng.Intn(9))}
			if len(stored) > 0 && rng.Intn(3) == 0 {
				k = stored[rng.Intn(len(stored))] // a merge
			}
			if !m.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, int64(rng.Intn(5)+1)) {
				refused++
				continue
			}
			stored = append(stored, k)
			checkFilter(t, m, "Add")
		}
		return stored
	}
	m, err := NewIn(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	stored := fill(m, rng)
	if m.Count() < m.Capacity()/2 {
		t.Fatalf("the stream filled %d of %d slots: the fixture is not what it says", m.Count(), m.Capacity())
	}
	for _, k := range stored {
		if got := m.EdgeSum(k.fpS, k.baseS, k.fpD, k.baseD, int64(k.off), int64(k.off)); got != 0 {
			m.Sub(k.fpS, k.baseS, k.fpD, k.baseD, k.off, got)
		}
	}
	checkFilter(t, m, "Sub to weight 0")
	if n := m.EdgeSum(stored[0].fpS, stored[0].baseS, stored[0].fpD, stored[0].baseD, math.MinInt64, math.MaxInt64); n != 0 {
		t.Fatalf("after every Sub an edge weighs %d", n)
	}
	dec, err := decode(encodeBytes(m))
	if err != nil {
		t.Fatal(err)
	}
	checkFilter(t, dec, "Decode")
	if !slices.Equal(dec.filter, m.filter) {
		t.Fatal("Decode built another filter than the Adds it replays")
	}

	old := &m.filter[0]
	m.Release(p)
	reused, err := NewIn(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &reused.filter[0] != old {
		t.Fatal("the pool did not hand the released slab back")
	}
	if i := slices.IndexFunc(reused.filter, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("put left filter word %d set", i)
	}
	fresh := mustNew(t, cfg, 0)
	fill(reused, rand.New(rand.NewSource(6)))
	fill(fresh, rand.New(rand.NewSource(6)))
	if !slices.Equal(reused.filter, fresh.filter) {
		t.Fatal("a pooled slab's filter differs from a fresh one's after the same stream")
	}
}

// TestFilterRulesOutAbsentEdges puts a floor under the filter's worth on
// benchMatrix's leaf fixture: at least 80 % of the absent edges must be
// ruled out, both among its random probes and among edges joining a stored
// source to the stored destination of another entry, whose endpoint items
// pass, so that only the edge item can rule them out. An all-ones filter
// keeps every answer right and saves nothing; this is the test that sees it.
func TestFilterRulesOutAbsentEdges(t *testing.T) {
	m, probes := benchMatrix(t, benchLeaf, 16)
	mask := m.cfg.D - 1
	held := map[benchEdge]bool{}
	var stored []benchEdge
	m.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, _ int64) {
		e := benchEdge{fpS, baseS & mask, fpD, baseD & mask}
		held[e] = true
		stored = append(stored, e)
	})
	var crossed []benchEdge
	for i, e := range stored {
		other := stored[(i+1)%len(stored)]
		crossed = append(crossed, benchEdge{e.fpS, e.baseS, other.fpD, other.baseD})
	}
	for _, c := range []struct {
		name  string
		edges []benchEdge
	}{{"random", probes}, {"crossed", crossed}} {
		absent, out := 0, 0
		for _, e := range c.edges {
			if held[benchEdge{e.fpS, e.baseS & mask, e.fpD, e.baseD & mask}] {
				continue
			}
			absent++
			if !m.mayHoldEdge(m.spillKey(e.fpS, e.baseS), m.spillKey(e.fpD, e.baseD)) {
				out++
			}
		}
		if absent < 300 || out*100 < absent*80 {
			t.Fatalf("%s: the filter rules out %d of %d absent edges, want at least 80 %%", c.name, out, absent)
		}
		t.Logf("%s: ruled out %d of %d absent edges (%.1f %%)", c.name, out, absent, 100*float64(out)/float64(absent))
	}
}
