package stream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// refDecode is the reference the line decoder must agree with: a
// plain encoding/json decode under the wire defaults (omitted weight
// means 1) plus the required-endpoints rule.
func refDecode(line []byte) (Item, bool) {
	it := Item{Weight: 1}
	if err := json.Unmarshal(line, (*wireItem)(&it)); err != nil {
		return Item{}, false
	}
	if it.Src == "" || it.Dst == "" {
		return Item{}, false
	}
	return it, true
}

// checkAgainstReference fails unless DecodeItemLine and ScanItemLine
// agree with the reference on acceptance and, when accepting, on the
// whole item.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	want, wantOK := refDecode(line)
	got, err := DecodeItemLine(line)
	if wantOK != (err == nil) {
		t.Fatalf("decode err=%v, reference ok=%v for %q", err, wantOK, line)
	}
	if wantOK && got != want {
		t.Fatalf("decode %+v, reference %+v for %q", got, want, line)
	}
	src, dst, err := ScanItemLine(line)
	if wantOK != (err == nil) || src != want.Src || dst != want.Dst {
		t.Fatalf("scan (%q,%q,%v), reference %+v ok=%v for %q", src, dst, err, want, wantOK, line)
	}
}

// scanSeeds are the shapes that exercise the fast path's proof
// obligations: duplicate and null numeric fields, integers at and past
// the digit limits, and keys that bind only case-insensitively.
var scanSeeds = [][]byte{
	[]byte(`{"src":"a","dst":"b","SRC":"z"}`),
	[]byte(`{"src":"a","dst":"b","weight":01}`),
	[]byte(`{"src":"a","dst":"b","x":{"y":[true,null,1.5]}}`),
	[]byte(`{"src":"a","dst":"b","weight":2,"weight":9}`),
	[]byte(`{"src":"a","dst":"b","weight":null}`),
	[]byte(`{"src":"a","dst":"b","weight":5,"weight":null}`),
	[]byte(`{"src":"a","dst":"b","time":123456789012345678}`),
	[]byte(`{"src":"a","dst":"b","time":-1234567890123456789}`),
	[]byte(`{"src":"a","dst":"b","weight":9223372036854775807}`),
	[]byte(`{"src":"a","dst":"b","weight":9223372036854775808}`),
	[]byte(`{"src":"a","dst":"b","label":999999999}`),
	[]byte(`{"src":"a","dst":"b","label":4294967295}`),
	[]byte(`{"src":"a","dst":"b","label":4294967296}`),
}

func TestScanItemLineAgreesWithReference(t *testing.T) {
	lines := []string{
		`{"src":"a","dst":"b"}`,
		`{"src":"a","dst":"b","weight":5,"time":9,"label":2}`,
		`  {  "src" : "a" , "dst" : "b" }  `,
		`{"dst":"b","src":"a"}`,
		`{"src":"a","dst":"b","weight":-3}`,
		`{"src":"a","dst":"b","extra":{"nested":[1,2,{"x":null}]}}`,
		`{"src":"a","dst":"b","note":"plain ascii"}`,
		`{"src":"a","dst":"b","src":"c"}`,                   // duplicate: last wins
		`{"src":"a","dst":"b","SRC":"z"}`,                   // case-insensitive bind
		`{"src":"é","dst":"b"}`,                             // escape: slow path
		`{"src":"é","dst":"b"}`,                             // multi-byte: slow path
		`{"src":"a","dst":""}`,                              // missing endpoint
		`{"src":"a"}`,                                       // missing dst
		`{"src":"a","dst":"b","weight":1.5}`,                // float into int64
		`{"src":"a","dst":"b","weight":"5"}`,                // string into int64
		`{"src":"a","dst":"b","label":-1}`,                  // negative into uint32
		`{"src":"a","dst":"b","label":4294967296}`,          // uint32 overflow
		`{"src":"a","dst":"b","time":12345678901}`,          // big but valid int64
		`{"src":"a","dst":"b","weight":01}`,                 // leading zero
		`{"src":"a","dst":"b"} trailing`,                    // trailing garbage
		`{"src":"a","dst":"b","extra":1e3}`,                 // exponent on unknown key
		`["src","dst"]`,                                     // not an object
		`{"src":"a","dst":"b",}`,                            // trailing comma
		`{"src":"a" "dst":"b"}`,                             // missing comma
		`{"src":"a","dst":"b","deep":` + deepJSON(40) + `}`, // beyond scan depth
		``,
		`not json`,
	}
	for _, line := range lines {
		checkAgainstReference(t, []byte(line))
	}
	for _, line := range scanSeeds {
		checkAgainstReference(t, line)
	}
}

func deepJSON(depth int) string {
	return strings.Repeat(`[`, depth) + `1` + strings.Repeat(`]`, depth)
}

// TestScanItemLineFastPathCoverage pins that the common wire shapes
// actually take the fast path, with the right values — the point of
// the scan is that no front door pays a full encoding/json decode per
// item.
func TestScanItemLineFastPathCoverage(t *testing.T) {
	fast := map[string]Item{
		`{"src":"n12","dst":"n9","weight":3,"time":17}`:   {Src: "n12", Dst: "n9", Weight: 3, Time: 17},
		`{"src":"a","dst":"b"}`:                           {Src: "a", Dst: "b", Weight: 1},
		`{"src":"a","dst":"b","weight":-1,"label":7}`:     {Src: "a", Dst: "b", Weight: -1, Label: 7},
		`{"src":"a","dst":"b","weight":0,"time":-5}`:      {Src: "a", Dst: "b", Weight: 0, Time: -5},
		`{"src":"a","dst":"b","weight":2,"weight":9}`:     {Src: "a", Dst: "b", Weight: 9},
		`{"src":"a","dst":"b","label":999999999}`:         {Src: "a", Dst: "b", Weight: 1, Label: 999999999},
		`{"src":"a","dst":"b","time":123456789012345678}`: {Src: "a", Dst: "b", Weight: 1, Time: 123456789012345678},
		`{"time":1700000000,"label":2,"dst":"d","src":"s","weight":42}`: {
			Src: "s", Dst: "d", Weight: 42, Time: 1700000000, Label: 2},
	}
	for line, want := range fast {
		got, ok := scanItemFast([]byte(line))
		if !ok {
			t.Errorf("fast path punted on a canonical line: %s", line)
			continue
		}
		if got != want {
			t.Errorf("fast path decoded %s as %+v, want %+v", line, got, want)
		}
	}
	slow := [][]byte{
		[]byte(`{"src":"é","dst":"b"}`),
		[]byte(`{"src":"a","dst":"b","SRC":"z"}`),
		[]byte(`{"src":"a","dst":"b","weight":null}`),
		[]byte(`{"src":"a","dst":"b","label":4294967295}`),
		[]byte(`{"src":"a","dst":"b","time":1234567890123456789}`),
	}
	for _, line := range slow {
		if _, ok := scanItemFast(line); ok {
			t.Errorf("fast path claimed a line it cannot prove: %s", line)
		}
	}
}

// FuzzScanItemLine is the differential target: on every input the
// line decoder and the reference decode must agree on acceptance and,
// when accepting, on the whole item. This is what makes the fast
// path's "sound by construction" claim checkable.
func FuzzScanItemLine(f *testing.F) {
	for _, seed := range ndjsonSeeds {
		for _, line := range bytes.Split(seed, []byte("\n")) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	for _, line := range scanSeeds {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstReference(t, line)
	})
}

func BenchmarkScanItemLine(b *testing.B) {
	line := []byte(`{"src":"n123456","dst":"n654321","weight":42,"time":1700000000}`)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeItemLine(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var wi wireItem
			if err := json.Unmarshal(line, &wi); err != nil {
				b.Fatal(err)
			}
		}
	})
}
