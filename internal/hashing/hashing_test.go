package hashing

import (
	"testing"
	"testing/quick"
)

func TestHasherDeterministic(t *testing.T) {
	h := NewHasher(42)
	if h.Hash(7) != h.Hash(7) {
		t.Fatal("Hash is not deterministic")
	}
	if NewHasher(1).Hash(7) == NewHasher(2).Hash(7) {
		t.Fatal("different seeds should (almost surely) produce different hashes")
	}
}

func TestHasherSpread(t *testing.T) {
	// Sequential vertex IDs must not land in sequential buckets.
	h := NewHasher(0)
	seen := make(map[uint32]int)
	const n, d = 4096, 64
	for v := uint64(0); v < n; v++ {
		_, addr := Split(h.Hash(v), 19, d)
		seen[addr]++
	}
	// Expect every bucket hit, roughly n/d times. Allow generous slack.
	for b := uint32(0); b < d; b++ {
		c := seen[b]
		if c < n/d/4 || c > n/d*4 {
			t.Fatalf("bucket %d has %d hits, want near %d", b, c, n/d)
		}
	}
}

func TestHashBijectivityProperty(t *testing.T) {
	// splitmix64 finalizer is a bijection: no two inputs may collide.
	h := NewHasher(123)
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return h.Hash(a) != h.Hash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	fp, addr := Split(0b1101_0110_1011, 4, 8)
	if fp != 0b1011 {
		t.Errorf("fp = %b, want 1011", fp)
	}
	// remaining bits 1101_0110 = 214, 214 % 8 = 6
	if addr != 6 {
		t.Errorf("addr = %d, want 6", addr)
	}
}

func TestSplitFingerprintWidth(t *testing.T) {
	for _, fbits := range []uint{1, 8, 19, 32} {
		fp, _ := Split(^uint64(0), fbits, 16)
		if uint64(fp) != (1<<fbits)-1 {
			t.Errorf("fbits=%d: fp = %x, want all-ones of width", fbits, fp)
		}
	}
}

func TestNewLCGRejectsNonPow2(t *testing.T) {
	for _, d := range []uint32{0, 3, 6, 100} {
		if _, err := NewLCG(d); err == nil {
			t.Errorf("NewLCG(%d) should fail", d)
		}
	}
}

func TestLCGPermutation(t *testing.T) {
	for _, d := range []uint32{2, 4, 16, 64, 1024} {
		l, err := NewLCG(d)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, d)
		x := uint32(0)
		for i := uint32(0); i < d; i++ {
			if seen[x] {
				t.Fatalf("d=%d: LCG revisits %d before full period", d, x)
			}
			seen[x] = true
			x = l.Next(x)
		}
		if x != 0 {
			t.Fatalf("d=%d: LCG period is not d", d)
		}
	}
}

func TestLCGInverseProperty(t *testing.T) {
	l := MustLCG(1 << 16)
	f := func(x uint32) bool {
		x &= 1<<16 - 1
		return l.Prev(l.Next(x)) == x && l.Next(l.Prev(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCGBaseRecovery(t *testing.T) {
	l := MustLCG(256)
	var seq [8]uint32
	for base := uint32(0); base < 256; base += 17 {
		l.Seq(base, seq[:])
		for i, a := range seq {
			if got := l.Base(a, i); got != base {
				t.Fatalf("Base(seq[%d]=%d, %d) = %d, want %d", i, a, i, got, base)
			}
			if got := l.At(base, i); got != a {
				t.Fatalf("At(%d, %d) = %d, want %d", base, i, got, a)
			}
		}
	}
}

func TestLCGSeqDistinct(t *testing.T) {
	l := MustLCG(16)
	var seq [16]uint32
	l.Seq(5, seq[:])
	seen := map[uint32]bool{}
	for _, a := range seq {
		if seen[a] {
			t.Fatalf("sequence repeats %d within period", a)
		}
		seen[a] = true
	}
}

func TestMix2(t *testing.T) {
	if Mix2(1, 2) == Mix2(2, 1) {
		t.Error("Mix2 should not be symmetric")
	}
	if Mix2(1, 2) == Mix2(1, 3) {
		t.Error("Mix2 should depend on second argument")
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint32]uint{1: 0, 2: 1, 16: 4, 17: 4, 1024: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIndexPairBits(t *testing.T) {
	cases := map[int]uint{1: 0, 2: 2, 3: 4, 4: 4, 5: 6, 8: 6, 9: 8, 16: 8}
	for in, want := range cases {
		if got := IndexPairBits(in); got != want {
			t.Errorf("IndexPairBits(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	h := NewHasher(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}
