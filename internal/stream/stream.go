// Package stream defines the graph stream model used throughout this
// repository (paper Def. 1) together with synthetic workload generators and
// a plain-text codec.
//
// A graph stream is a time-ordered sequence of items (s, d, w, t): a
// directed edge s→d carrying weight w that arrives at time t. The same
// (s, d) pair may appear many times with different weights and timestamps.
//
// The real datasets evaluated in the paper (Lkml, Wikipedia-talk,
// StackOverflow; KONECT) are not available offline, so this package
// synthesizes presets reproducing the two stream properties the paper's
// design arguments rest on: power-law vertex degrees (Fig. 2) and bursty,
// irregular arrival intervals (Fig. 3). See DESIGN.md §4 for the
// substitution rationale.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Edge is one graph stream item e = (s, d, w, t). The tags are its JSON
// shape on the HTTP write endpoints (internal/server).
type Edge struct {
	S uint64 `json:"s"` // source vertex
	D uint64 `json:"d"` // destination vertex
	W int64  `json:"w"` // weight
	T int64  `json:"t"` // arrival timestamp (seconds)
}

// Stream is a time-ordered sequence of edges.
type Stream []Edge

// Sorted reports whether the stream is non-decreasing in time.
func (s Stream) Sorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			return false
		}
	}
	return true
}

// SortByTime stably sorts the stream by arrival timestamp.
func (s Stream) SortByTime() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
}

// Span returns the first and last timestamps. A nil or empty stream spans
// (0, 0).
func (s Stream) Span() (first, last int64) {
	if len(s) == 0 {
		return 0, 0
	}
	return s[0].T, s[len(s)-1].T
}

// Stats summarizes a stream the way the paper's Table II does, plus the
// degree extremes used by the collision-rate analysis (§V-D).
type Stats struct {
	Nodes         int   // distinct vertices
	Edges         int   // stream items
	DistinctEdges int   // distinct (s, d) pairs
	FirstT        int64 // earliest timestamp
	LastT         int64 // latest timestamp
	MaxOutDegree  int   // Φo: max distinct out-neighbours of any vertex
	MaxInDegree   int   // Φi: max distinct in-neighbours of any vertex
	TotalWeight   int64 // Σ w
}

// Span returns the stream duration L in time units.
func (st Stats) Span() int64 { return st.LastT - st.FirstT }

// Summarize computes Stats in one pass (plus neighbour set maps).
func Summarize(s Stream) Stats {
	var st Stats
	st.Edges = len(s)
	if len(s) == 0 {
		return st
	}
	nodes := make(map[uint64]struct{})
	out := make(map[uint64]map[uint64]struct{})
	st.FirstT, st.LastT = s[0].T, s[0].T
	inDeg := make(map[uint64]map[uint64]struct{})
	for _, e := range s {
		nodes[e.S] = struct{}{}
		nodes[e.D] = struct{}{}
		if e.T < st.FirstT {
			st.FirstT = e.T
		}
		if e.T > st.LastT {
			st.LastT = e.T
		}
		st.TotalWeight += e.W
		m := out[e.S]
		if m == nil {
			m = make(map[uint64]struct{})
			out[e.S] = m
		}
		m[e.D] = struct{}{}
		mi := inDeg[e.D]
		if mi == nil {
			mi = make(map[uint64]struct{})
			inDeg[e.D] = mi
		}
		mi[e.S] = struct{}{}
	}
	st.Nodes = len(nodes)
	for _, m := range out {
		st.DistinctEdges += len(m)
		if len(m) > st.MaxOutDegree {
			st.MaxOutDegree = len(m)
		}
	}
	for _, m := range inDeg {
		if len(m) > st.MaxInDegree {
			st.MaxInDegree = len(m)
		}
	}
	return st
}

// Config controls synthetic stream generation.
type Config struct {
	Nodes    int     // size of the vertex universe (> 1)
	Edges    int     // number of stream items to emit (> 0)
	Span     int64   // stream duration in seconds (> 0)
	Skew     float64 // power-law exponent for vertex degrees (> 1)
	Variance float64 // variance of per-slice arrival counts (≥ 0); 0 = uniform
	Slices   int     // number of time slices for the arrival process (default 1000)
	Seed     int64   // RNG seed; streams are fully deterministic per seed
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("stream: Nodes = %d, need ≥ 2", c.Nodes)
	case c.Edges <= 0:
		return fmt.Errorf("stream: Edges = %d, need > 0", c.Edges)
	case c.Span <= 0:
		return fmt.Errorf("stream: Span = %d, need > 0", c.Span)
	case c.Skew <= 1:
		return fmt.Errorf("stream: Skew = %g, need > 1 (power-law exponent)", c.Skew)
	case c.Variance < 0:
		return fmt.Errorf("stream: Variance = %g, need ≥ 0", c.Variance)
	default:
		return nil
	}
}

// Generate synthesizes a deterministic graph stream.
//
// Vertex selection follows a discrete power law whose *degree*
// distribution has exponent Skew (the convention of the paper's Fig. 2 and
// Fig. 14 sweep): rank r receives weight r^(−1/(Skew−1)), the standard
// rank–frequency transform. Source and destination ranks pass through
// independent pseudorandom permutations so the hubs of the out- and
// in-degree distributions are unrelated vertices. Arrival times follow a
// slice-based bursty process: each of Slices equal time slices draws a
// rate from a truncated normal with the configured variance, and edges are
// distributed proportionally (paper Fig. 3 irregularity; Fig. 15 sweep).
func Generate(c Config) (Stream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Slices <= 0 {
		c.Slices = 1000
	}
	if int64(c.Slices) > c.Span {
		c.Slices = int(c.Span)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	zipf := newRankSampler(c.Nodes, c.Skew)

	// Per-slice arrival counts.
	counts := sliceCounts(rng, c.Edges, c.Slices, c.Variance)

	// Independent rank→vertex permutations for sources and destinations,
	// implemented as seeded splitmix-style index scrambles to avoid
	// materializing two full permutation arrays for large universes.
	srcPerm := newScramble(uint64(c.Seed)*0x9e37 + 1)
	dstPerm := newScramble(uint64(c.Seed)*0x85eb + 2)

	out := make(Stream, 0, c.Edges)
	sliceLen := float64(c.Span) / float64(c.Slices)
	for si, n := range counts {
		lo := int64(float64(si) * sliceLen)
		hi := int64(float64(si+1) * sliceLen)
		if hi <= lo {
			hi = lo + 1
		}
		for i := 0; i < n; i++ {
			s := srcPerm.apply(zipf.sample(rng), uint64(c.Nodes))
			d := dstPerm.apply(zipf.sample(rng), uint64(c.Nodes))
			if s == d { // avoid self loops; redraw destination once
				d = dstPerm.apply(zipf.sample(rng), uint64(c.Nodes))
				if s == d {
					d = (d + 1) % uint64(c.Nodes)
				}
			}
			t := lo + rng.Int63n(hi-lo)
			out = append(out, Edge{S: s, D: d, W: 1, T: t})
		}
	}
	out.SortByTime()
	return out, nil
}

// rankSampler draws ranks 0..n−1 with probability ∝ (rank+1)^(−b), where
// b = 1/(Skew−1) is the rank–frequency exponent matching a degree
// distribution with power-law exponent Skew. Sampling is a binary search
// over cumulative weights.
type rankSampler struct {
	cum   []float64
	total float64
}

func newRankSampler(n int, degreeExp float64) *rankSampler {
	b := 1.0 / (degreeExp - 1.0)
	s := &rankSampler{cum: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.total += math.Pow(float64(i+1), -b)
		s.cum[i] = s.total
	}
	return s
}

func (s *rankSampler) sample(rng *rand.Rand) uint64 {
	u := rng.Float64() * s.total
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// sliceCounts distributes total edges over k slices with the requested
// variance of per-slice counts. Variance 0 yields a uniform split.
func sliceCounts(rng *rand.Rand, total, k int, variance float64) []int {
	counts := make([]int, k)
	mean := float64(total) / float64(k)
	std := math.Sqrt(variance)
	sum := 0
	weights := make([]float64, k)
	var wsum float64
	for i := range weights {
		w := mean + std*rng.NormFloat64()
		if w < 0 {
			w = 0
		}
		weights[i] = w
		wsum += w
	}
	if wsum == 0 {
		weights[0], wsum = 1, 1
	}
	for i := range counts {
		counts[i] = int(weights[i] / wsum * float64(total))
		sum += counts[i]
	}
	// Distribute rounding remainder to the heaviest slices.
	for sum < total {
		best := 0
		for i := range weights {
			if weights[i] > weights[best] {
				best = i
			}
		}
		counts[best]++
		weights[best] *= 0.999999
		sum++
	}
	return counts
}

// scramble is a cheap seeded bijective-ish index mapper used to decouple
// Zipf ranks from vertex IDs. It hashes the rank and reduces modulo the
// universe; collisions merely merge ranks, which preserves the heavy tail.
type scramble struct{ seed uint64 }

func newScramble(seed uint64) scramble { return scramble{seed} }

func (sc scramble) apply(rank, n uint64) uint64 {
	x := rank + sc.seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x % n
}

// Write encodes the stream as one "s d w t" line per edge.
func Write(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	for _, e := range s {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.S, e.D, e.W, e.T); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
	}
	return bw.Flush()
}

// Read decodes a whitespace-separated edge list in the layout of KONECT
// out.* files: "s d", "s d w", or "s d w t" per line ('%' and '#' lines
// are comments). Missing weights default to 1; missing timestamps default
// to the line's ordinal, preserving arrival order. All lines of one input
// must have the same number of fields.
func Read(r io.Reader) (Stream, error) {
	var s Stream
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	fields := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if len(txt) == 0 || txt[0] == '%' || txt[0] == '#' {
			continue // comment/header lines
		}
		parts := strings.Fields(txt)
		if fields == 0 {
			fields = len(parts)
			if fields < 2 || fields > 4 {
				return nil, fmt.Errorf("stream: line %d: %d fields, want 2..4 (s d [w [t]])", line, fields)
			}
		}
		if len(parts) != fields {
			return nil, fmt.Errorf("stream: line %d: %d fields, want %d as on the first edge line", line, len(parts), fields)
		}
		e := Edge{W: 1, T: int64(len(s))}
		var err error
		if e.S, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
			return nil, fmt.Errorf("stream: line %d: source: %w", line, err)
		}
		if e.D, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
			return nil, fmt.Errorf("stream: line %d: destination: %w", line, err)
		}
		if fields >= 3 {
			if e.W, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
				return nil, fmt.Errorf("stream: line %d: weight: %w", line, err)
			}
		}
		if fields == 4 {
			if e.T, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
				return nil, fmt.Errorf("stream: line %d: timestamp: %w", line, err)
			}
		}
		s = append(s, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: scan: %w", err)
	}
	return s, nil
}
