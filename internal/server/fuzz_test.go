package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeBatch fuzzes the body decoder of the write endpoints: it must
// never panic, and it must accept exactly the bodies — and produce exactly
// the edges — of the shape it replaced, a strict json decode into a fresh
// slice of a tagged struct that was then copied field by field into
// stream.Edge. Every input is decoded into a pooled buffer that has just
// held a batch with every field set, so an edge that omits a field must
// still read zero there: encoding/json fills reused slice elements in
// place, and putBatch's clear is what keeps the last request's values out.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range []string{
		`[{"s":1,"d":2,"w":3,"t":10},{"s":2,"d":3,"w":4,"t":20}]`,
		`[{"s":1,"d":2},{"t":5}]`,
		`[{}]`,
		`[]`,
		`null`,
		`[{"S":1,"D":2,"W":-3,"T":-10}]`,
		`[{"s":1,"d":2,"w":3,"t":10,"x":1}]`,
		`[{"s":-1}]`,
		`[{"s":18446744073709551615,"d":0,"w":-9223372036854775808,"t":9223372036854775807}]`,
		`{"s":1,"d":2,"w":3,"t":10}`,
		`[{"s":1,"d":2,"w":3,"t":10}] trailing`,
		`[{"s":1,"s":2}]`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(s))
	}
	decode := func(body []byte) (*batchBuf, error) {
		return decodeBatch(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	}
	dirty := []byte(`[{"s":9,"d":9,"w":9,"t":9},{"s":9,"d":9,"w":9,"t":9},{"s":9,"d":9,"w":9,"t":9}]`)
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := decode(dirty)
		if err != nil {
			t.Fatal(err)
		}
		putBatch(b)

		var want []struct {
			S uint64 `json:"s"`
			D uint64 `json:"d"`
			W int64  `json:"w"`
			T int64  `json:"t"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		b, err = decode(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decodeBatch(%q) = %v, the two-step decode %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		defer putBatch(b)
		if len(b.edges) != len(want) {
			t.Fatalf("decodeBatch(%q) = %d edges, the two-step decode %d", body, len(b.edges), len(want))
		}
		for i, e := range b.edges {
			if w := want[i]; e.S != w.S || e.D != w.D || e.W != w.W || e.T != w.T {
				t.Fatalf("decodeBatch(%q) edge %d = %+v, the two-step decode %+v", body, i, e, w)
			}
		}
	})
}
