package main

import (
	"math/rand"
	"strconv"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// The cyclic stream. One base stream of z.CycleEdges edges is replayed
// cycle after cycle with its timestamps shifted by cycle × span, and after
// each cycle everything older than WindowCycles cycles is expired. Every
// cycle is therefore the same work on a summary holding the same live
// window — which slices of one long append run are not: the tree keeps
// growing under them, and equal slices of it were seen to differ fourfold.

// graphSeed seeds the one graph every run streams. The graph does not
// change with -seed: on a graph drawn from -seed, which shards the three
// heaviest sources happened to hash to moved space_bytes_per_edge by a
// quarter between seeds and the timings with it (README.md has the
// figures), far more than any change this benchmark is meant to resolve.
// What -seed does choose is where in the cycle the stream starts, and
// every query's keys, window and place in the order.
const graphSeed = 1

// baseStream synthesizes the base cycle — timestamps in [0, z.Span) — and
// rotates it to start at a position drawn from seed. The cycle repeats
// anyway, so a rotation keeps every aggregate property of the stream and
// still moves every leaf boundary of the tree built from it.
func baseStream(z sizes, seed int64) (stream.Stream, error) {
	s, err := stream.Generate(stream.Config{
		Nodes:    z.Nodes,
		Edges:    z.CycleEdges,
		Span:     z.Span,
		Skew:     2.0,
		Variance: 900,
		Seed:     graphSeed,
	})
	if err != nil {
		return nil, err
	}
	// Cut between two timestamps, never inside a run of equal ones, so
	// that the part moved to the end stays strictly inside the span.
	k := rand.New(rand.NewSource(seed)).Intn(len(s))
	for k > 0 && s[k].T == s[k-1].T {
		k--
	}
	out := make(stream.Stream, 0, len(s))
	for _, e := range s[k:] {
		e.T -= s[k].T
		out = append(out, e)
	}
	for _, e := range s[:k] {
		e.T += z.Span - s[k].T
		out = append(out, e)
	}
	return out, nil
}

// cycleStart is the absolute timestamp at which cycle c begins.
func cycleStart(z sizes, c int) int64 { return timeOrigin + int64(c)*z.Span }

// cycleStream returns cycle c: the base stream shifted to cycleStart(c).
func cycleStream(base stream.Stream, z sizes, c int) stream.Stream {
	out := make(stream.Stream, len(base))
	shift := cycleStart(z, c)
	for i, e := range base {
		e.T += shift
		out[i] = e
	}
	return out
}

// expireCutoff is the cutoff POSTed to /v1/expire once cycle c is in:
// everything before the start of cycle c−WindowCycles+1 goes, so exactly
// WindowCycles whole cycles stay live.
func expireCutoff(z sizes, c int) int64 { return cycleStart(z, c-z.WindowCycles+1) }

type opKind uint8

const (
	opIngest opKind = iota // POST /v1/ingest, one batch of edges
	opQuery                // POST /v2/query, one batch of queries
	opFlush                // POST /v1/flush
	opExpire               // POST /v1/expire
)

// op is one request of a round: its decoded input, which the traced replay
// feeds to each seam, and its encoded HTTP form, which the daemon gets.
type op struct {
	kind opKind
	// endsSegment marks the last request of a segment: the daemon has no
	// work left once it is answered, so the segment's time and CPU cost
	// are its own (see runner.endToEnd).
	endsSegment bool
	edges       stream.Stream // opIngest
	queries     []query.Query // opQuery, absolute timestamps
	exact       []int64       // opQuery: the true answer to each query
	cutoff      int64         // opExpire
	req         []byte        // the whole HTTP/1.1 request
}

// cycleOps returns the write requests of cycle c in order: the ingest
// batches, a flush barrier after every z.FlushEvery of them — which closes
// a segment: everything accepted so far is applied — and the expire that
// closes the cycle.
func cycleOps(base stream.Stream, z sizes, c int) []op {
	edges := cycleStream(base, z, c)
	flush := op{kind: opFlush, endsSegment: true, req: httpRequest("POST", "/v1/flush", nil)}
	var ops []op
	for lo, n := 0, 0; lo < len(edges); lo += z.IngestBatch {
		hi := min(lo+z.IngestBatch, len(edges))
		o := op{kind: opIngest, edges: edges[lo:hi]}
		o.req = httpRequest("POST", "/v1/ingest", encodeEdges(o.edges))
		ops = append(ops, o)
		if n++; n%z.FlushEvery == 0 || hi == len(edges) {
			ops = append(ops, flush)
		}
	}
	cut := expireCutoff(z, c)
	ops[len(ops)-1].endsSegment = false // the last flush and the expire end the cycle's last segment together
	return append(ops, op{kind: opExpire, endsSegment: true, cutoff: cut, req: httpRequest("POST", "/v1/expire",
		strconv.AppendInt([]byte(`{"cutoff":`), cut, 10), '}')})
}

// encodeEdges renders a /v1/ingest body.
func encodeEdges(edges stream.Stream) []byte {
	b := make([]byte, 0, 48*len(edges)+2)
	b = append(b, '[')
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"s":`...)
		b = strconv.AppendUint(b, e.S, 10)
		b = append(b, `,"d":`...)
		b = strconv.AppendUint(b, e.D, 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, e.W, 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendInt(b, e.T, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// httpRequest frames one keep-alive HTTP/1.1 request; tail is appended to
// the body, so callers can close a JSON object without a second buffer.
func httpRequest(method, path string, body []byte, tail ...byte) []byte {
	body = append(body, tail...)
	b := make([]byte, 0, len(body)+128)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: higgsd\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}
