package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeBatch fuzzes the body decoder of the write endpoints, scanner
// and fallback together: it must never panic, and it must accept exactly the
// bodies — and produce exactly the edges — of the wire contract, a strict
// json decode into a fresh slice of a tagged struct with nothing but
// whitespace after the value. Every input is decoded into a pooled buffer
// that has just held a batch with every field set, so an edge that omits a
// field must still read zero there: encoding/json fills reused slice
// elements in place, and putBatch's clear is what keeps the last request's
// values out.
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
		`[{"s":1,"d":2,"w":3,"t":10}][{"s":3,"d":4,"w":1,"t":10}]`,
		`[{"s":1,"s":2}]`,
		`[1,2]`,
		``,
		`[{"s":1,"d":2,"w":3,"t":10}] trailing`,
		" [ { \"s\" : 1 ,\n\t\"t\" : -0 } , { } ] \r\n",
		`[{"s":1.0}]`, `[{"s":1e3}]`, `[{"s":01}]`, `[{"w":- 1}]`, `[{"s":18446744073709551616}]`,
		`[{"w":9223372036854775808}]`, `[{"w":-9223372036854775809}]`,
		`[{"\u0073":1}]`, `[{"ſ":1}]`, `[{"s":null}]`, `[{"s":1,}]`, `[{"s":1},]`, `[{"s":1}`,
		// json.MarshalIndent's spelling, another key order, and whitespace
		// before and after every token
		"[\n\t{\n\t\t\"s\": 1,\n\t\t\"d\": 2,\n\t\t\"w\": 3,\n\t\t\"t\": 10\n\t}\n]",
		`[{"s":1,"d":2,"t":10,"w":3}]`,
		" [ { \"s\" : 1 , \"d\" : 2 , \"w\" : -3 , \"t\" : 10 } , { \"s\" : 4 , \"d\" : 5 , \"w\" : 6 , \"t\" : 7 } ] ",
	} {
		f.Add([]byte(s))
	}
	// The integer borders of each field: the last literal read unchecked,
	// the first checked one, and the field's limit on either side.
	for _, u := range []string{"999999999999999999", "1000000000000000000", "18446744073709551615", "18446744073709551616"} {
		f.Add([]byte(`[{"s":` + u + `,"d":1,"w":1,"t":1}]`))
		f.Add([]byte(`[{"s":1,"d":` + u + `,"w":1,"t":1}]`))
	}
	for _, n := range signedBorders {
		f.Add([]byte(`[{"s":1,"d":1,"w":` + n + `,"t":1}]`))
		f.Add([]byte(`[{"s":1,"d":1,"w":1,"t":` + n + `}]`))
	}
	f.Fuzz(checkBatchBody)
}

// signedBorders are the int64 literals on the borders of the scanner's
// integer reader: the last read unchecked, the first checked, and the limits.
var signedBorders = []string{
	"999999999999999999", "-999999999999999999", "1000000000000000000", "-1000000000000000000",
	"9223372036854775807", "-9223372036854775807", "-9223372036854775808", "9223372036854775808",
}

// checkBatchBody holds decodeBatch, through a dirtied pooled buffer, to the
// strict decode of one body.
func checkBatchBody(t *testing.T, body []byte) {
	t.Helper()
	b, err := decodeBatch([]byte(`[{"s":9,"d":9,"w":9,"t":9},{"s":9,"d":9,"w":9,"t":9},{"s":9,"d":9,"w":9,"t":9}]`))
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
	if wantErr == nil {
		if _, err := dec.Token(); err != io.EOF {
			wantErr = errors.New("data after the array")
		}
	}

	b, err = decodeBatch(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeBatch(%q) = %v, the strict decode %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	defer putBatch(b)
	if len(b.edges) != len(want) {
		t.Fatalf("decodeBatch(%q) = %d edges, the strict decode %d", body, len(b.edges), len(want))
	}
	for i, e := range b.edges {
		if w := want[i]; e.S != w.S || e.D != w.D || e.W != w.W || e.T != w.T {
			t.Fatalf("decodeBatch(%q) edge %d = %+v, the strict decode %+v", body, i, e, w)
		}
	}
}
