// Multirelation: heterogeneous graph streams — the paper's first
// future-work direction (§VII). A platform emits one stream with three
// relation types (follows, pays, messages); a labeled pair of HIGGS
// summaries answers per-relation temporal queries that a label-blind
// summary cannot: "how much money flowed a→b this week?" vs "how often did
// a message b?".
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"higgs/internal/core"
	"higgs/internal/hashing"
	"higgs/internal/stream"
)

const (
	relFollows = uint32(1)
	relPays    = uint32(2)
	relMessage = uint32(3)

	day  = int64(86_400)
	week = 7 * day
)

// edge is one labeled stream item: a directed edge S→D of relation Label
// carrying weight W at time T.
type edge struct {
	S, D  uint64
	Label uint32
	W, T  int64
}

// labeled composes two HIGGS summaries: all over the label-blind stream,
// and mixed over the same stream with each vertex key mixed with its
// edge's label, so a label-restricted query is an ordinary query under
// the mixed keys. Both keep HIGGS's one-sided error; space is twice one
// summary.
type labeled struct {
	all, mixed *core.Summary
}

func newLabeled(cfg core.Config) (labeled, error) {
	all, err := core.New(cfg)
	if err != nil {
		return labeled{}, err
	}
	cfg.Seed ^= 0xa5a5a5a5a5a5a5a5
	mixed, err := core.New(cfg)
	return labeled{all: all, mixed: mixed}, err
}

// mix folds a relation label into a vertex key.
func mix(v uint64, label uint32) uint64 {
	return hashing.Mix2(v, uint64(label)+1)
}

func (s labeled) insert(e edge) {
	s.all.Insert(stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T})
	s.mixed.Insert(stream.Edge{S: mix(e.S, e.Label), D: mix(e.D, e.Label), W: e.W, T: e.T})
}

// edgeWeight estimates the weight of s→d restricted to one relation.
func (s labeled) edgeWeight(sv, dv uint64, label uint32, ts, te int64) int64 {
	return s.mixed.EdgeWeight(mix(sv, label), mix(dv, label), ts, te)
}

// vertexIn estimates v's in-weight restricted to one relation.
func (s labeled) vertexIn(v uint64, label uint32, ts, te int64) int64 {
	return s.mixed.VertexIn(mix(v, label), ts, te)
}

// pathWeight sums the edge weights along a path whose every hop carries
// the given relation.
func (s labeled) pathWeight(path []uint64, label uint32, ts, te int64) int64 {
	var sum int64
	for i := 0; i+1 < len(path); i++ {
		sum += s.edgeWeight(path[i], path[i+1], label, ts, te)
	}
	return sum
}

func main() {
	rng := rand.New(rand.NewSource(21))
	s, err := newLabeled(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// One week of mixed activity between 5000 users. User 42 runs a shop:
	// many small incoming payments; user 7 is an influencer: many follows.
	edges := make([]edge, 0, 200_000)
	for i := 0; i < 150_000; i++ {
		rel := []uint32{relFollows, relPays, relMessage}[rng.Intn(3)]
		w := int64(1)
		if rel == relPays {
			w = int64(rng.Intn(200) + 1)
		}
		edges = append(edges, edge{
			S: uint64(rng.Intn(5000)), D: uint64(rng.Intn(5000)),
			Label: rel, W: w, T: rng.Int63n(week),
		})
	}
	for i := 0; i < 20_000; i++ { // the shop's customers pay in
		edges = append(edges, edge{
			S: uint64(rng.Intn(5000)), D: 42, Label: relPays,
			W: int64(rng.Intn(50) + 5), T: rng.Int63n(week),
		})
	}
	for i := 0; i < 30_000; i++ { // the influencer gains followers
		edges = append(edges, edge{
			S: uint64(rng.Intn(5000)), D: 7, Label: relFollows,
			W: 1, T: rng.Int63n(week),
		})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].T < edges[j].T })
	for _, e := range edges {
		s.insert(e)
	}
	s.all.Finalize()
	s.mixed.Finalize()

	fmt.Println("per-relation incoming volume over the week:")
	fmt.Printf("%-12s %12s %12s %12s %14s\n", "user", "follows(in)", "pays(in)", "msgs(in)", "all-relations")
	for _, u := range []uint64{42, 7, 1234} {
		fmt.Printf("%-12d %12d %12d %12d %14d\n", u,
			s.vertexIn(u, relFollows, 0, week),
			s.vertexIn(u, relPays, 0, week),
			s.vertexIn(u, relMessage, 0, week),
			s.all.VertexIn(u, 0, week))
	}

	// Daily revenue trend for the shop: a labeled vertex query per day.
	fmt.Println("\nshop (user 42) daily payment intake:")
	for d := int64(0); d < 7; d++ {
		rev := s.vertexIn(42, relPays, d*day, (d+1)*day-1)
		fmt.Printf("  day %d: $%d\n", d, rev)
	}

	// A money-trail path query restricted to the pays relation.
	trail := s.pathWeight([]uint64{100, 200, 300}, relPays, 0, week)
	fmt.Printf("\npays-only trail 100→200→300 this week: $%d\n", trail)

	fmt.Printf("\n%d labeled items summarized in %d KB (both views)\n",
		s.all.Items(), (s.all.SpaceBytes()+s.mixed.SpaceBytes())/1024)
}
