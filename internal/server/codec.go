package server

// The wire codec of the JSON endpoints (DESIGN.md §10 "Wire codec"). A
// request body is read once, whole, into a pooled buffer; the bodies of the
// hot endpoints (/v1/insert, /v1/ingest, /v2/query) are then offered to a
// scanner that decodes the canonical spelling of their JSON — what
// json.Marshal and json.MarshalIndent emit — without reflection or
// allocation, and their answers are appended into the same buffer. Edges
// are read in json.Marshal's key order only, token by token (scanEdges);
// query items in any key order (scanner). Both read integers with digits.
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

// scanner walks a /v2/query body in its canonical spelling: whitespace
// anywhere, exact lower-case keys without escapes, each key at most once,
// integer literals in range of their field, escape-free ASCII strings.
// Anything else — null, a float, a folded key, a syntax error — makes it
// give up: the failure is sticky, every later step fails fast, and the
// caller checks end once. Edge bodies have a grammar of their own, read
// by scanEdges.
type scanner struct {
	b      []byte
	i      int
	gaveUp bool
}

func (s *scanner) giveUp() {
	s.gaveUp = true
	s.i = len(s.b)
}

// skipWS returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func (s *scanner) ws() { s.i = skipWS(s.b, s.i) }

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

// digits reads the integer literal at b[i:] no greater than limit, as
// JSON spells one: at least one digit and no leading zero. It returns the
// value and the index just past the literal; ok is false on anything else.
// What may follow a literal in JSON but not here — a fraction, an exponent
// — is left unread for the caller, who expects neither. limit is at least
// 10¹⁸−1, so the first 18 digits accumulate unchecked; only a 19th and 20th
// are checked against it.
func digits(b []byte, i int, limit uint64) (v uint64, end int, ok bool) {
	start := i
	for _, c := range b[i:min(len(b), i+18)] {
		if c-'0' > 9 {
			break
		}
		v = v*10 + uint64(c-'0')
		i++
	}
	if i-start == 18 {
		for ; i < len(b); i++ {
			d := uint64(b[i] - '0')
			if d > 9 {
				break
			}
			if v > (limit-d)/10 {
				return 0, i, false
			}
			v = v*10 + d
		}
	}
	if n := i - start; n == 0 || n > 1 && b[start] == '0' {
		return 0, i, false
	}
	return v, i, true
}

// signed reads an int64 literal at b[i:], as digits does.
func signed(b []byte, i int) (int64, int, bool) {
	if i < len(b) && b[i] == '-' {
		v, end, ok := digits(b, i+1, 1<<63)
		return int64(-v), end, ok
	}
	v, end, ok := digits(b, i, math.MaxInt64)
	return int64(v), end, ok
}

func (s *scanner) uint() uint64 {
	s.ws()
	v, end, ok := digits(s.b, s.i, math.MaxUint64)
	s.i = end
	if !ok {
		s.giveUp()
	}
	return v
}

func (s *scanner) int() int64 {
	s.ws()
	v, end, ok := signed(s.b, s.i)
	s.i = end
	if !ok {
		s.giveUp()
	}
	return v
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
// appending to edges. It reads every edge in the one order json.Marshal
// writes a stream.Edge, {"s":…,"d":…,"w":…,"t":…}, all four keys present.
// Each structural token is compared byte for byte first, followed by a
// byte that is not whitespace — all a compact body needs, and written out
// at each token because a comparison against a string literal compiles to
// word compares where one against a parameter calls memequal. Only when
// that fails is the token matched again with JSON whitespace around it
// (token), so indented bodies are read here too. Any other spelling —
// another key order, a repeated or missing key, {}, an escape, a float,
// null — is encoding/json's: ok is false, and the returned slice holds
// whatever was decoded by then.
func scanEdges(b []byte, edges []stream.Edge) ([]stream.Edge, bool) {
	i := token(b, 0, "[")
	if i < len(b) && b[i] == ']' {
		return edges, skipWS(b, i+1) == len(b)
	}
	var ok bool
	for {
		var e stream.Edge
		if j := i + 5; j < len(b) && string(b[i:j]) == `{"s":` && b[j] > ' ' {
			i = j
		} else {
			i = token(b, i, `{"s":`)
		}
		if e.S, i, ok = digits(b, i, math.MaxUint64); !ok {
			return edges, false
		}
		if j := i + 5; j < len(b) && string(b[i:j]) == `,"d":` && b[j] > ' ' {
			i = j
		} else {
			i = token(b, i, `,"d":`)
		}
		if e.D, i, ok = digits(b, i, math.MaxUint64); !ok {
			return edges, false
		}
		if j := i + 5; j < len(b) && string(b[i:j]) == `,"w":` && b[j] > ' ' {
			i = j
		} else {
			i = token(b, i, `,"w":`)
		}
		if e.W, i, ok = signed(b, i); !ok {
			return edges, false
		}
		if j := i + 5; j < len(b) && string(b[i:j]) == `,"t":` && b[j] > ' ' {
			i = j
		} else {
			i = token(b, i, `,"t":`)
		}
		if e.T, i, ok = signed(b, i); !ok {
			return edges, false
		}
		if i < len(b) && b[i] == '}' {
			i = skipWS(b, i+1)
		} else {
			i = token(b, i, "}")
		}
		edges = append(edges, e)
		if i == len(b) || b[i] != ',' {
			break
		}
		i++
	}
	return edges, i < len(b) && b[i] == ']' && skipWS(b, i+1) == len(b)
}

// token matches the structural token tok at b[i:] with JSON whitespace
// allowed before each of its bytes outside the quoted key, and returns the
// index past it and the whitespace after it — or len(b) when it does not
// match, where every later read fails.
func token(b []byte, i int, tok string) int {
	inKey := false
	for j := 0; j < len(tok); j++ {
		if !inKey {
			i = skipWS(b, i)
		}
		if i == len(b) || b[i] != tok[j] {
			return len(b)
		}
		inKey = inKey != (tok[j] == '"')
		i++
	}
	return skipWS(b, i)
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
	// Completed before budgeting, so admission sees the real probe count. An
	// item still invalid is answered here: the planner would fill it again,
	// and a second fill could plan probes nobody budgeted.
	query.Fill(&q, st.analytics())
	if err := q.Validate(); err != nil {
		e.out[len(e.out)-1] = batchResult{Error: err.Error(), Code: errCode(err)}
		return
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
