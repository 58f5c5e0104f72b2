package server

// The wire codec of the JSON endpoints (DESIGN.md §10 "Wire codec"). A
// request body is read once, whole, into a pooled buffer; the bodies of the
// hot endpoints (/v1/insert, /v1/ingest, /v2/query) are then offered to a
// scanner that decodes the canonical spelling of their JSON — what
// json.Marshal and every hand-rolled client emit — without reflection or
// allocation, and their answers are appended into the same buffer.
//
// The scanner never rejects a body. On the first byte it does not expect it
// gives up without an opinion, and the handler decodes the same bytes with
// encoding/json, which alone decides what is accepted and words every
// error. That keeps the wire contract "whatever encoding/json's strict
// decode accepts" (FuzzDecodeBatch and FuzzQueryEnvelope hold the scanner to
// it: whenever it answers, it answers what encoding/json would have).

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// maxPooledBody is the largest body buffer kept for the next request; a
// rare multi-megabyte batch should not pin its buffer in the pool.
const maxPooledBody = 1 << 20

// wireBuf holds a request's bytes: the whole body and then, once the
// handler has decoded everything out of it, the response rendered in its
// place. It belongs to the handler until putBody; nothing decoded from it
// aliases it.
type wireBuf struct{ b []byte }

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// readBody reads the request body to its end under the maxBatchBody cap
// (http.MaxBytesReader, so an oversized body also closes the connection),
// before anything is decoded. The buffer is sized from Content-Length when
// the client sent one. The error is the body's own: *http.MaxBytesError past
// the cap, else whatever ended the read.
func readBody(w http.ResponseWriter, r *http.Request) (*wireBuf, error) {
	wb := wirePool.Get().(*wireBuf)
	b := wb.b[:0]
	if n := r.ContentLength; n >= int64(cap(b)) && n <= maxBatchBody {
		b = make([]byte, 0, n+1) // +1: the read that reports EOF needs room too
	}
	rd := http.MaxBytesReader(w, r.Body, maxBatchBody)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.b = b
			if err == io.EOF {
				return wb, nil
			}
			putBody(wb)
			return nil, err
		}
	}
}

func putBody(wb *wireBuf) {
	if cap(wb.b) <= maxPooledBody {
		wirePool.Put(wb)
	}
}

// writeWire sends the response rendered in wb.
func writeWire(w http.ResponseWriter, status int, wb *wireBuf) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(wb.b) // a connection-level failure; nothing sensible left to do
}

// scanner walks a JSON body in its canonical spelling: whitespace
// anywhere, exact lower-case keys without escapes, each key at most once,
// integer literals in range of their field, escape-free ASCII strings.
// Anything else — null, a float, a folded key, a syntax error — makes it
// give up: the failure is sticky, every later step fails fast, and the
// caller checks end once.
type scanner struct {
	b      []byte
	i      int
	gaveUp bool
}

func (s *scanner) giveUp() {
	s.gaveUp = true
	s.i = len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// expect consumes whitespace and then exactly c.
func (s *scanner) expect(c byte) {
	s.ws()
	if s.i == len(s.b) || s.b[s.i] != c {
		s.giveUp()
		return
	}
	s.i++
}

// end reports whether the scan reached the end of the body, trailing
// whitespace aside, without giving up.
func (s *scanner) end() bool {
	s.ws()
	return !s.gaveUp && s.i == len(s.b)
}

// more reports whether another element of the array (closer ']') or member
// of the object ('}') being scanned follows, consuming the comma before it
// or the closer after the last one.
func (s *scanner) more(first bool, closer byte) bool {
	s.ws()
	if s.i == len(s.b) {
		s.giveUp()
		return false
	}
	switch c := s.b[s.i]; {
	case c == closer:
		s.i++
		return false
	case first:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.giveUp()
	return false
}

// str scans the rest of a string whose opening quote has been consumed and
// returns its bytes, nil on giving up: an escape, a control byte and
// anything outside ASCII are encoding/json's to interpret.
func (s *scanner) str() []byte {
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.giveUp()
			return nil
		}
	}
	s.giveUp()
	return nil
}

// key returns the next member's key of the object being scanned, its ':'
// consumed; nil at the closing '}' and on giving up.
func (s *scanner) key(first bool) []byte {
	if !s.more(first, '}') {
		return nil
	}
	s.expect('"')
	k := s.str()
	s.expect(':')
	if s.gaveUp {
		return nil
	}
	return k
}

// once gives up on the second occurrence of field f within one object:
// which of two values wins is encoding/json's call.
func (s *scanner) once(seen *uint, f uint) {
	if *seen&(1<<f) != 0 {
		s.giveUp()
	}
	*seen |= 1 << f
}

// digits scans the digits of an integer literal no greater than limit, as
// JSON spells one: at least one digit and no leading zero. What may follow
// a literal in JSON but not here — a fraction, an exponent — is left
// unread for the caller, who expects neither.
func (s *scanner) digits(limit uint64) uint64 {
	start := s.i
	var v uint64
	for ; s.i < len(s.b); s.i++ {
		d := uint64(s.b[s.i] - '0')
		if d > 9 {
			break
		}
		if v > (limit-d)/10 {
			s.giveUp()
			return 0
		}
		v = v*10 + d
	}
	if n := s.i - start; n == 0 || n > 1 && s.b[start] == '0' {
		s.giveUp()
		return 0
	}
	return v
}

func (s *scanner) uint() uint64 {
	s.ws()
	return s.digits(math.MaxUint64)
}

func (s *scanner) int() int64 {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
		return int64(-s.digits(1 << 63))
	}
	return int64(s.digits(math.MaxInt64))
}

// uints appends an array of unsigned integers to dst and returns the grown
// dst and the elements just appended, capped so that appending to them
// cannot reach a neighbour's.
func (s *scanner) uints(dst []uint64) (grown, elems []uint64) {
	lo := len(dst)
	s.expect('[')
	for first := true; s.more(first, ']'); first = false {
		dst = append(dst, s.uint())
	}
	return dst, dst[lo:len(dst):len(dst)]
}

// pairs is uints for an array of [s,d] pairs. A pair of any other length
// gives up: encoding/json zero-fills a short one and drops the tail of a
// long one.
func (s *scanner) pairs(dst [][2]uint64) (grown, elems [][2]uint64) {
	lo := len(dst)
	s.expect('[')
	for first := true; s.more(first, ']'); first = false {
		var p [2]uint64
		s.expect('[')
		p[0] = s.uint()
		s.expect(',')
		p[1] = s.uint()
		s.expect(']')
		dst = append(dst, p)
	}
	return dst, dst[lo:len(dst):len(dst)]
}

// scanEdges decodes the body of a write endpoint, a JSON array of edges,
// appending to edges. ok is false when the scanner gave up; the returned
// slice then holds whatever it had decoded by then.
func scanEdges(body []byte, edges []stream.Edge) (_ []stream.Edge, ok bool) {
	s := scanner{b: body}
	s.expect('[')
	for first := true; s.more(first, ']'); first = false {
		var e stream.Edge
		var seen uint
		s.expect('{')
		for first := true; ; first = false {
			k := s.key(first)
			if k == nil {
				break
			}
			var f uint
			switch string(k) {
			case "s":
				f, e.S = 0, s.uint()
			case "d":
				f, e.D = 1, s.uint()
			case "w":
				f, e.W = 2, s.int()
			case "t":
				f, e.T = 3, s.int()
			default:
				s.giveUp()
			}
			s.once(&seen, f)
		}
		edges = append(edges, e)
	}
	return edges, s.end()
}

// writeCount answers a write with {"<name>":n}, byte for byte what
// encoding/json renders for a one-key map.
func writeCount(w http.ResponseWriter, status int, wb *wireBuf, name string, n int) {
	wb.b = append(wb.b[:0], `{"`...)
	wb.b = append(wb.b, name...)
	wb.b = append(wb.b, `":`...)
	wb.b = strconv.AppendInt(wb.b, int64(n), 10)
	wb.b = append(wb.b, "}\n"...)
	writeWire(w, status, wb)
}

// maxPooledItems is maxPooledBody for an envelope's scratch slices, in
// elements.
const maxPooledItems = 1 << 12

// envelope is a decoded /v2/query body and the scratch it was decoded into:
// request-scoped, pooled, and referenced by nothing once the handler
// returns — the planner copies what it keeps into query.Probe values, and
// answers are rendered before the envelope is put back.
type envelope struct {
	batch  []query.Query // the items that decoded, in body order
	idx    []int         // the out slot of each
	out    []batchResult // one slot per item; set only where the item did not decode
	probes int           // what batch plans (Query.ProbeCount), for the budget and admission
	// nums and pairs back every Path, Candidates and Edges the scanner
	// decoded: two slices per batch however many items carry one.
	nums  []uint64
	pairs [][2]uint64
}

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// reset empties the envelope, dropping every reference it holds.
func (e *envelope) reset() {
	clear(e.batch)
	clear(e.out)
	e.batch, e.idx, e.out, e.probes = e.batch[:0], e.idx[:0], e.out[:0], 0
	e.nums, e.pairs = e.nums[:0], e.pairs[:0]
}

func putEnvelope(e *envelope) {
	if max(cap(e.out), cap(e.nums), cap(e.pairs)) > maxPooledItems {
		return
	}
	e.reset()
	envelopePool.Put(e)
}

// add gives a decoded item its answer slot and plans it against st, the one
// state the batch is budgeted, admitted and executed on.
func (e *envelope) add(q query.Query, st *state) {
	e.out = append(e.out, batchResult{})
	if e.probes > maxBatchProbes {
		return // the envelope is rejected whole once it has been read; plan no more of it
	}
	// A delta_vertex item may omit its candidate set: the engine's tracked
	// heavy hitters are the natural "what changed most" candidates. Filled
	// before budgeting so admission sees the real probe count.
	if q.Kind == query.KindDeltaVertex && len(q.Candidates) == 0 && st.eng != nil {
		q.Candidates = st.eng.CandidateVertices(q.Dir, defaultDeltaCandidates)
	}
	e.probes += q.ProbeCount(st.sum.NumShards())
	e.batch = append(e.batch, q)
	e.idx = append(e.idx, len(e.out)-1)
}

// scanEnvelope decodes a canonical /v2/query body into e. On false the
// scanner gave up (or met the item cap, whose error is the decoder's to
// word) and e holds garbage: reset it and decode.
func scanEnvelope(body []byte, st *state, e *envelope) bool {
	s := scanner{b: body}
	s.expect('[')
	for first := true; s.more(first, ']'); first = false {
		var q query.Query
		s.expect('{')
		s.query(&q, e)
		if s.gaveUp || len(e.out) == maxBatchQueries {
			return false
		}
		e.add(q, st)
	}
	return s.end()
}

// query scans the members of one /v2/query item whose '{' has been
// consumed.
func (s *scanner) query(q *query.Query, e *envelope) {
	var seen uint
	for first := true; ; first = false {
		k := s.key(first)
		if k == nil {
			return
		}
		var f uint
		switch string(k) {
		case "kind":
			f, q.Kind = 0, s.kind()
		case "s":
			f, q.S = 1, s.uint()
		case "d":
			f, q.D = 2, s.uint()
		case "v":
			f, q.V = 3, s.uint()
		case "path":
			f = 4
			e.nums, q.Path = s.uints(e.nums)
		case "edges":
			f = 5
			e.pairs, q.Edges = s.pairs(e.pairs)
		case "ts":
			f, q.Ts = 6, s.int()
		case "te":
			f, q.Te = 7, s.int()
		case "ts2":
			f, q.Ts2 = 8, s.int()
		case "te2":
			f, q.Te2 = 9, s.int()
		case "k":
			f = 10
			k := s.int()
			if q.K = int(k); int64(q.K) != k {
				s.giveUp()
			}
		case "dir":
			f, q.Dir = 11, s.dir()
		case "candidates":
			f = 12
			e.nums, q.Candidates = s.uints(e.nums)
		default:
			s.giveUp()
		}
		s.once(&seen, f)
	}
}

// kind scans a query kind by its wire name; the error for any other name
// is query.ParseKind's to word.
func (s *scanner) kind() query.Kind {
	s.expect('"')
	name := s.str()
	for k := query.KindEdge; k <= query.KindBurst; k++ {
		if string(name) == k.String() {
			return k
		}
	}
	s.giveUp()
	return 0
}

// dir scans a degree direction onto the query package's own constants, so
// the item keeps no reference into the body.
func (s *scanner) dir() string {
	s.expect('"')
	switch string(s.str()) {
	case query.DirOut:
		return query.DirOut
	case query.DirIn:
		return query.DirIn
	}
	s.giveUp()
	return ""
}

// appendAnswers renders the /v2/query response — e's out slots, with
// results[j] filled into slot e.idx[j] — byte for byte as encoding/json
// renders a []batchResult followed by a newline. A weight, the hot shape,
// is appended directly; error and ranked slots go through json.Marshal.
func appendAnswers(dst []byte, e *envelope, results []query.Result) ([]byte, error) {
	dst = append(dst, '[')
	j := 0
	for i, slot := range e.out {
		if i > 0 {
			dst = append(dst, ',')
		}
		if j < len(e.idx) && e.idx[j] == i {
			res, kind := results[j], e.batch[j].Kind
			j++
			switch {
			case res.Err != nil:
				slot = batchResult{Error: res.Err.Error(), Code: errCode(res.Err)}
			case kind == query.KindDeltaVertex, kind == query.KindDeltaEdge,
				kind == query.KindHeavyHitters, kind == query.KindBurst:
				// Ranked kinds answer via "top"; an empty ranking omits the
				// field (omitempty), never emits "weight".
				slot = batchResult{Top: res.Top}
			default:
				dst = append(dst, `{"weight":`...)
				dst = strconv.AppendInt(dst, res.Weight, 10)
				dst = append(dst, '}')
				continue
			}
		}
		b, err := json.Marshal(slot)
		if err != nil {
			return nil, err
		}
		dst = append(dst, b...)
	}
	return append(dst, "]\n"...), nil
}
