package query

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzQueryUnmarshal fuzzes the /v2/query wire form: any JSON that
// unmarshals into a Query and passes Validate must survive a
// marshal→unmarshal round trip with every field its kind consults
// preserved, and its marshaled form must be a fixpoint (re-marshaling the
// re-unmarshaled query yields identical bytes — the canonical wire form
// is stable). Unmarshal and Validate must never panic on any input.
func FuzzQueryUnmarshal(f *testing.F) {
	for _, s := range []string{
		`{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`,
		`{"kind":"vertex_out","v":7,"ts":-5,"te":5}`,
		`{"kind":"vertex_in","v":7,"ts":0,"te":0}`,
		`{"kind":"path","path":[1,2,3],"ts":0,"te":100}`,
		`{"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":100}`,
		`{"kind":"edge","ts":100,"te":50}`,
		`{"kind":"nope"}`,
		`{"kind":"heavy_hitters","dir":"in","k":3}`,
		`{"kind":"burst","candidates":[4,5],"ts":0,"te":59,"ts2":60,"te2":79}`,
		`{}`,
		`[]`,
		`{"kind":"edge","s":18446744073709551615,"d":0,"ts":-9223372036854775808,"te":9223372036854775807}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		if err := json.Unmarshal(data, &q); err != nil {
			return // not wire-form JSON: rejection is the contract
		}
		if q.Validate() != nil {
			return // invalid queries never reach execution
		}
		out, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal of a valid query: %v", err)
		}
		var q2 Query
		if err := json.Unmarshal(out, &q2); err != nil {
			t.Fatalf("unmarshal of own marshal %s: %v", out, err)
		}
		if err := q2.Validate(); err != nil {
			t.Fatalf("round-tripped query invalid: %v (wire %s)", err, out)
		}
		// Every field the query's kind consults must survive.
		if q2.Kind != q.Kind || q2.Ts != q.Ts || q2.Te != q.Te {
			t.Fatalf("round trip changed kind/window: %+v vs %+v", q2, q)
		}
		switch q.Kind {
		case KindEdge:
			if q2.S != q.S || q2.D != q.D {
				t.Fatalf("round trip changed edge endpoints: %+v vs %+v", q2, q)
			}
		case KindVertexOut, KindVertexIn:
			if q2.V != q.V {
				t.Fatalf("round trip changed vertex: %+v vs %+v", q2, q)
			}
		case KindPath:
			if len(q2.Path) != len(q.Path) {
				t.Fatalf("round trip changed path length: %+v vs %+v", q2, q)
			}
			for i := range q.Path {
				if q2.Path[i] != q.Path[i] {
					t.Fatalf("round trip changed path: %+v vs %+v", q2, q)
				}
			}
		case KindSubgraph:
			if len(q2.Edges) != len(q.Edges) {
				t.Fatalf("round trip changed edge set size: %+v vs %+v", q2, q)
			}
			for i := range q.Edges {
				if q2.Edges[i] != q.Edges[i] {
					t.Fatalf("round trip changed edge set: %+v vs %+v", q2, q)
				}
			}
		}
		// The canonical form is a fixpoint.
		out2, err := json.Marshal(q2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal not stable: %s then %s", out, out2)
		}
		// Planning must not panic, and a valid query always plans work —
		// heavy_hitters and burst one per candidate, once Fill gave them any.
		ranked := q2.Kind == KindHeavyHitters || q2.Kind == KindBurst
		if n := q2.ProbeCount(4); n <= 0 && !(ranked && len(q2.Candidates) == 0) {
			t.Fatalf("valid query plans %d probes", n)
		}
	})
}
