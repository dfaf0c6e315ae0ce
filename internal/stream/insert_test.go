package stream

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// The /insert body decoder sits behind both the server's and the
// cluster router's /insert, so it gets the same treatment as the other
// decode surfaces: whatever the input, items or an error — never a
// panic — and every item it accepts decodes exactly like an NDJSON
// line.

var insertSeeds = [][]byte{
	[]byte(`{"src":"a","dst":"b"}`),
	[]byte(`{"src":"a","dst":"b","weight":5,"time":9,"label":2}`),
	[]byte(`[{"src":"a","dst":"b"},{"src":"b","dst":"c","weight":-3}]`),
	[]byte(`[]`),
	[]byte(`{"src":"","dst":"b"}`),
	[]byte(`{"src":"a"`),
	[]byte(`"just a string"`),
	[]byte(`[{"src":"a","dst":"b"},42]`),
	[]byte("{\"src\":\"\\u00e9\",\"dst\":\"\\ud83d\\ude00\"}"),
	{0xff, 0xfe, '{', '}'},
}

func FuzzDecodeInsert(f *testing.F) {
	for _, seed := range insertSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeInsert(data)
		if err != nil {
			return
		}
		var elems []json.RawMessage
		if i := skipWS(data, 0); data[i] == '{' {
			elems = []json.RawMessage{data}
		} else if err := json.Unmarshal(data, &elems); err != nil {
			t.Fatalf("accepted a body that is not a JSON array: %q", data)
		}
		if len(elems) != len(items) {
			t.Fatalf("%d items from %d elements of %q", len(items), len(elems), data)
		}
		for i, el := range elems {
			want, err := DecodeItemLine(el)
			if err != nil || items[i] != want {
				t.Fatalf("item %d = %+v, but as an NDJSON line it decodes to %+v (%v)", i, items[i], want, err)
			}
		}
		// What was accepted re-encodes as an array and decodes again.
		wire := make([]wireItem, len(items))
		for i, it := range items {
			wire[i] = wireItem(it)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeInsert(body)
		if err != nil || (len(items) > 0 && !reflect.DeepEqual(again, items)) {
			t.Fatalf("round trip of %q: %+v (%v), want %+v", body, again, err, items)
		}
	})
}

// TestDecodeInsert pins the body shapes: object or array, NDJSON-line
// semantics per item, nothing but whitespace after the value.
func TestDecodeInsert(t *testing.T) {
	ok := map[string][]Item{
		`{"src":"a","dst":"b"}`:               {{Src: "a", Dst: "b", Weight: 1}},
		" \n{\"src\":\"a\",\"dst\":\"b\"}\n ": {{Src: "a", Dst: "b", Weight: 1}},
		`{"SRC":"a","DST":"b"}`:               {{Src: "a", Dst: "b", Weight: 1}},
		`[{"SRC":"a","DST":"b"}]`:             {{Src: "a", Dst: "b", Weight: 1}},
		`[{"src":"a","dst":"b","weight":7,"time":3,"label":2},{"src":"b","dst":"c"}]`: {
			{Src: "a", Dst: "b", Weight: 7, Time: 3, Label: 2}, {Src: "b", Dst: "c", Weight: 1}},
		`[]`: nil,
	}
	for body, want := range ok {
		got, err := DecodeInsert([]byte(body))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %+v (%v), want %+v", body, got, err, want)
		}
	}
	for _, body := range []string{
		``, `  `, `"just a string"`, `42`,
		`{"src":"a","dst":"b"} trailing garbage`,
		`[{"src":"a","dst":"b"}] trailing garbage`,
		`[{"src":"a","dst":"b"}][]`,
		`{"src":"a","dst":"b"}{"src":"c","dst":"d"}`,
		`[{"src":"a","dst":""}]`,
		`[{"src":"a","dst":"b"},42]`,
		`[{"src":"a","dst":"b"}`,
	} {
		if items, err := DecodeInsert([]byte(body)); err == nil {
			t.Errorf("%q accepted as %+v", body, items)
		}
	}
}

// TestDecodeInsertNamesBadItem checks that an error names the bad
// element, so a client can find it in a large array.
func TestDecodeInsertNamesBadItem(t *testing.T) {
	_, err := DecodeInsert([]byte(`[{"src":"a","dst":"b"},{"src":"a"}]`))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("item 2")) {
		t.Fatalf("error %v does not name item 2", err)
	}
}
