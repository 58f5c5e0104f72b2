package horae

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"higgs/internal/auxo"
	"higgs/internal/exact"
	"higgs/internal/gss"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// kind is one layer sketch the figures run the time-prefix layering over,
// built the way internal/bench builds it: GSS through New (Horae), Auxo
// through NewWithLayers (AuxoTime). d is its layer dimension in the small
// tests; the accuracy tests double it.
type kind struct {
	name string // the full variant's; the compact one adds "-cpt"
	d    uint32
	new  func(maxLevel int, compact bool, d uint32, fbits uint, seed uint64) (*Summary, error)
}

var kinds = []kind{
	{"Horae", 64, func(maxLevel int, compact bool, d uint32, fbits uint, seed uint64) (*Summary, error) {
		return New(Config{MaxLevel: maxLevel, Compact: compact, Layer: gss.Config{D: d, FBits: fbits, Maps: 4}, Seed: seed})
	}},
	{"AuxoTime", 32, func(maxLevel int, compact bool, d uint32, fbits uint, seed uint64) (*Summary, error) {
		name := "AuxoTime"
		if compact {
			name += "-cpt"
		}
		return NewWithLayers(name, maxLevel, compact, seed, func() (Layer, error) {
			return auxo.New(auxo.Config{D: d, FBits: fbits, Maps: 4})
		})
	}},
}

func (k kind) build(t *testing.T, maxLevel int, compact bool) *Summary {
	t.Helper()
	s, err := k.new(maxLevel, compact, k.d, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func build(t *testing.T, maxLevel int, compact bool) *Summary {
	t.Helper()
	return kinds[0].build(t, maxLevel, compact)
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{MaxLevel: 0}); err == nil {
		t.Error("MaxLevel=0 accepted")
	}
	if _, err := New(Config{MaxLevel: 41}); err == nil {
		t.Error("MaxLevel=41 accepted")
	}
	if _, err := New(Config{MaxLevel: 5, Layer: gss.Config{D: 3}}); err == nil {
		t.Error("invalid layer config accepted")
	}
}

func TestLayerCounts(t *testing.T) {
	if got := len(build(t, 10, false).stored); got != 11 {
		t.Errorf("full variant stores %d layers, want 11", got)
	}
	if got := len(build(t, 10, true).stored); got != 6 {
		t.Errorf("cpt variant stores %d layers, want 6 (levels 0,2,4,6,8,10)", got)
	}
}

func TestTemporalRanges(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, compact := range []bool{false, true} {
				s := k.build(t, 16, compact)
				s.Insert(stream.Edge{S: 1, D: 2, W: 3, T: 10})
				s.Insert(stream.Edge{S: 1, D: 2, W: 2, T: 20})
				s.Insert(stream.Edge{S: 1, D: 2, W: 5, T: 30})
				cases := []struct {
					ts, te int64
					want   int64
				}{
					{0, 100, 10}, {10, 10, 3}, {11, 29, 2}, {15, 35, 7},
					{31, 100, 0}, {0, 9, 0}, {25, 5, 0},
				}
				for _, c := range cases {
					if got := s.EdgeWeight(1, 2, c.ts, c.te); got != c.want {
						t.Errorf("compact=%v: edge [%d,%d] = %d, want %d", compact, c.ts, c.te, got, c.want)
					}
				}
				if got := s.VertexOut(1, 0, 100); got != 10 {
					t.Errorf("compact=%v: out(1) = %d, want 10", compact, got)
				}
				if got := s.VertexIn(2, 11, 30); got != 7 {
					t.Errorf("compact=%v: in(2) = %d, want 7", compact, got)
				}
			}
		})
	}
}

func TestOneSidedVsExact(t *testing.T) {
	st, err := stream.Generate(stream.Config{Nodes: 200, Edges: 8000, Span: 50000, Skew: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.FromStream(st)
	maxLevel := trq.LevelsForSpan(50000, 30)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, compact := range []bool{false, true} {
				s, err := k.new(maxLevel, compact, 2*k.d, 13, 3)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range st {
					s.Insert(e)
				}
				rng := rand.New(rand.NewSource(4))
				for i := 0; i < 200; i++ {
					ts := int64(rng.Intn(50000))
					te := ts + int64(rng.Intn(20000))
					sv, dv := uint64(rng.Intn(200)), uint64(rng.Intn(200))
					if got, want := s.EdgeWeight(sv, dv, ts, te), truth.EdgeWeight(sv, dv, ts, te); got < want {
						t.Fatalf("compact=%v: edge (%d,%d) [%d,%d] = %d < truth %d", compact, sv, dv, ts, te, got, want)
					}
					if got, want := s.VertexOut(sv, ts, te), truth.VertexOut(sv, ts, te); got < want {
						t.Fatalf("compact=%v: out(%d) = %d < truth %d", compact, sv, got, want)
					}
					if got, want := s.VertexIn(dv, ts, te), truth.VertexIn(dv, ts, te); got < want {
						t.Fatalf("compact=%v: in(%d) = %d < truth %d", compact, dv, got, want)
					}
				}
			}
		})
	}
}

func TestCompactUsesLessSpace(t *testing.T) {
	st, err := stream.Generate(stream.Config{Nodes: 200, Edges: 5000, Span: 50000, Skew: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			full, cpt := k.build(t, 16, false), k.build(t, 16, true)
			if len(cpt.stored) >= len(full.stored) {
				t.Fatalf("cpt stores %d layers, full %d", len(cpt.stored), len(full.stored))
			}
			for _, e := range st {
				full.Insert(e)
				cpt.Insert(e)
			}
			if cpt.SpaceBytes() >= full.SpaceBytes() {
				t.Fatalf("cpt space %d not below full %d", cpt.SpaceBytes(), full.SpaceBytes())
			}
			if full.Items() != int64(len(st)) || cpt.Items() != int64(len(st)) {
				t.Fatalf("items: full %d, cpt %d, want %d", full.Items(), cpt.Items(), len(st))
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.build(t, 16, false)
			e := stream.Edge{S: 1, D: 2, W: 3, T: 10}
			s.Insert(e)
			if !s.Delete(e) {
				t.Fatal("delete failed")
			}
			if got := s.EdgeWeight(1, 2, 0, 100); got != 0 {
				t.Errorf("after delete = %d, want 0", got)
			}
		})
	}
}

func TestNames(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			if got := k.build(t, 4, false).Name(); got != k.name {
				t.Errorf("full variant is named %q", got)
			}
			if got := k.build(t, 4, true).Name(); got != k.name+"-cpt" {
				t.Errorf("compact variant is named %q", got)
			}
		})
	}
}

func TestRangeAdditivityHolds(t *testing.T) {
	// Dyadic decomposition plus per-layer sums must tile ranges exactly:
	// [a,b] equals [a,m] + [m+1,b] over either layer sketch (the same
	// invariant as HIGGS, via disjoint block covers).
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.build(t, 16, false)
			rng := rand.New(rand.NewSource(10))
			for i := 0; i < 3000; i++ {
				s.Insert(stream.Edge{S: uint64(rng.Intn(50)), D: uint64(rng.Intn(50)), W: 1, T: int64(i * 10)})
			}
			for i := 0; i < 200; i++ {
				lo := int64(rng.Intn(30000))
				hi := lo + int64(rng.Intn(10000))
				mid := lo + (hi-lo)/2
				sv, dv := uint64(rng.Intn(50)), uint64(rng.Intn(50))
				whole := s.EdgeWeight(sv, dv, lo, hi)
				parts := s.EdgeWeight(sv, dv, lo, mid) + s.EdgeWeight(sv, dv, mid+1, hi)
				if whole != parts {
					t.Fatalf("additivity broken at (%d,%d) [%d,%d]: %d != %d", sv, dv, lo, hi, whole, parts)
				}
			}
		})
	}
}

// TestOverloadedDigest pins the four baselines the figures run — Horae,
// Horae-cpt, AuxoTime, AuxoTime-cpt — on overloaded layers with deletes
// interleaved: every edge, out and in answer over a fixed vertex set and
// window set, each delete's result, SpaceBytes and Items, hashed into one
// SHA-256 per variant recorded when the test was written.
func TestOverloadedDigest(t *testing.T) {
	const span = 20000
	st, err := stream.Generate(stream.Config{Nodes: 200, Edges: 4000, Span: span, Skew: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	maxLevel := trq.LevelsForSpan(span, 30)
	gssCfg := gss.Config{D: 16, FBits: 6, Maps: 4, MaxBuffer: 64}
	auxoCfg := auxo.Config{D: 8, FBits: 4, Maps: 4}
	auxoTime := func(name string, compact bool) func() (*Summary, error) {
		return func() (*Summary, error) {
			return NewWithLayers(name, maxLevel, compact, 3, func() (Layer, error) { return auxo.New(auxoCfg) })
		}
	}
	for _, c := range []struct {
		name, want string
		build      func() (*Summary, error)
	}{
		{"Horae", "be1c0ac16330fe65f09ca70c2d75ac1d5cedc83acb6a4ed31e3aa9f7fce752fe", func() (*Summary, error) {
			return New(Config{MaxLevel: maxLevel, Layer: gssCfg, Seed: 3})
		}},
		{"Horae-cpt", "a6d44fd76bf2f5565dea8a11f60c26c39aa27a4023e86fcaa2e766f9a227a2fe", func() (*Summary, error) {
			return New(Config{MaxLevel: maxLevel, Compact: true, Layer: gssCfg, Seed: 3})
		}},
		{"AuxoTime", "f99f9be2ccdb7db01ec825d97a40b69b14be3167f49966c010c72e90189b2147", auxoTime("AuxoTime", false)},
		{"AuxoTime-cpt", "ca7c2a46f10be0cd843f873b4dae0712b3aed27d5167dc0886a4058189694abf", auxoTime("AuxoTime-cpt", true)},
	} {
		s, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != c.name {
			t.Errorf("built %q, want %q", s.Name(), c.name)
		}
		var buf []byte
		put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
		rng := rand.New(rand.NewSource(22))
		for i, e := range st {
			s.Insert(e)
			if i%5 == 4 {
				if s.Delete(st[rng.Intn(i+1)]) {
					put(1)
				} else {
					put(0)
				}
			}
		}
		windows := [][2]int64{{0, span}}
		for range 8 {
			ts := int64(rng.Intn(span))
			windows = append(windows, [2]int64{ts, ts + int64(rng.Intn(span/4))})
		}
		const nv = 40
		for _, w := range windows {
			for u := uint64(0); u < nv; u++ {
				for v := uint64(0); v < nv; v++ {
					put(s.EdgeWeight(u, v, w[0], w[1]))
				}
				put(s.VertexOut(u, w[0], w[1]))
				put(s.VertexIn(u, w[0], w[1]))
			}
		}
		put(s.SpaceBytes())
		put(s.Items())
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: digest = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNegativeTimestampsClamped(t *testing.T) {
	s := build(t, 8, false)
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: -5})
	if got := s.EdgeWeight(1, 2, 0, 10); got != 1 {
		t.Errorf("negative-time insert lost: %d", got)
	}
}
