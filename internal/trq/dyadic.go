package trq

// Block is one piece of a dyadic range decomposition: at Level ℓ it covers
// timestamps [Index·2^ℓ, (Index+1)·2^ℓ − 1].
type Block struct {
	Level int
	Index uint64
}

// Decompose covers the inclusive timestamp range [ts, te] with maximal
// aligned dyadic blocks whose levels satisfy allowed (level 0 must always
// be allowed) and do not exceed maxLevel. This is the time-prefix range
// decomposition Horae and PGSS-style structures use; with every level
// allowed it yields at most 2·maxLevel blocks, and with sparse levels
// (the -cpt variants) proportionally more.
//
// Negative ts is clamped to 0. An inverted range yields nil.
func Decompose(ts, te int64, maxLevel int, allowed func(level int) bool) []Block {
	if ts < 0 {
		ts = 0
	}
	if te < ts {
		return nil
	}
	var out []Block
	t := uint64(ts)
	end := uint64(te)
	for t <= end {
		lvl := 0
		// Largest allowed level at which t is aligned and the block fits.
		for l := 1; l <= maxLevel; l++ {
			if t&(1<<l-1) != 0 {
				break // no higher level can be aligned either
			}
			if !allowed(l) {
				continue
			}
			if t+(1<<l)-1 <= end {
				lvl = l
			} else {
				break
			}
		}
		out = append(out, Block{Level: lvl, Index: t >> lvl})
		next := t + 1<<lvl
		if next <= t { // overflow guard
			break
		}
		t = next
	}
	return out
}

// EvenLevels reports only even levels (and level 0) as allowed — the layer
// thinning used by the -cpt compact variants.
func EvenLevels(l int) bool { return l%2 == 0 }

// LevelsForSpan returns the smallest level count such that one block at the
// top level covers a stream of the given duration, capped at cap.
func LevelsForSpan(span int64, cap int) int {
	if span < 1 {
		span = 1
	}
	l := 0
	for int64(1)<<l < span && l < cap {
		l++
	}
	return l
}
