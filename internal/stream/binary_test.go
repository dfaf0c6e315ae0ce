package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hashing"
)

func testHashedItems(n int, seed int64) []HashedItem {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Src:    fmt.Sprintf("src-%d", rng.Intn(n/2+1)),
			Dst:    fmt.Sprintf("dst-%d", rng.Intn(n/2+1)),
			Time:   rng.Int63n(1000) - 100,
			Weight: rng.Int63n(50) - 10,
			Label:  uint32(rng.Intn(5)),
		}
	}
	return HashItems(items, nil)
}

func TestHashItemCarriesFullHashes(t *testing.T) {
	it := HashItem(Item{Src: "alpha", Dst: "beta", Weight: 3})
	if it.HSrc != hashing.Hash64("alpha") || it.HDst != hashing.Hash64("beta") {
		t.Fatalf("HashItem carried %#x/%#x, want full Hash64 values", it.HSrc, it.HDst)
	}
	if it.FPs != PackFingerprints(it.HSrc, it.HDst) {
		t.Fatalf("FPs %#x inconsistent with hashes", it.FPs)
	}
	// The carried 16-bit fingerprint halves must contain every
	// backend's fingerprint: for any fpBits <= 16, H64 % 2^fpBits is a
	// mask of the carried half.
	for _, fpBits := range []int{4, 8, 12, 16} {
		f := uint64(1) << fpBits
		want := it.HSrc % f
		if got := uint64(it.FPs>>16) & (f - 1); got != want {
			t.Fatalf("fpBits=%d: carried src fingerprint %d, want %d", fpBits, got, want)
		}
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	items := testHashedItems(500, 7)
	var buf bytes.Buffer
	bw := NewBinaryBatchWriter(&buf)
	for i := 0; i < len(items); i += 64 {
		end := i + 64
		if end > len(items) {
			end = len(items)
		}
		if err := bw.WriteBatch(items[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("round trip diverged: got %d items", len(got))
	}
}

func TestBinaryDecoderReuseMatchesFresh(t *testing.T) {
	items := testHashedItems(300, 11)
	var buf bytes.Buffer
	bw := NewBinaryBatchWriter(&buf)
	for i := 0; i < len(items); i += 37 {
		end := i + 37
		if end > len(items) {
			end = len(items)
		}
		if err := bw.WriteBatch(items[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	fresh, err := ReadAllBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBinaryBatchDecoder(bytes.NewReader(buf.Bytes()))
	dec.SetReuse(true)
	var reused []HashedItem
	for {
		b := dec.Next()
		if b == nil {
			break
		}
		// Payload views are alive exactly while the batch is: they must
		// decode back to the batch's items.
		for i, p := range dec.Payloads() {
			it, n, err := DecodeItem(p)
			if err != nil || n != len(p) {
				t.Fatalf("payload %d: %v (consumed %d of %d)", i, err, n, len(p))
			}
			if it != b[i].Item {
				t.Fatalf("payload %d decodes to %+v, batch holds %+v", i, it, b[i].Item)
			}
		}
		reused = append(reused, b...)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reuse decode diverged from fresh decode")
	}
	if dec.Items() != int64(len(items)) {
		t.Fatalf("Items() = %d, want %d", dec.Items(), len(items))
	}
}

func TestBinaryWriterSplitsOversizedBatches(t *testing.T) {
	items := testHashedItems(maxFrameItems+10, 3)
	var buf bytes.Buffer
	bw := NewBinaryBatchWriter(&buf)
	if err := bw.WriteBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewBinaryBatchDecoder(bytes.NewReader(buf.Bytes()))
	var got int
	for {
		b := dec.Next()
		if b == nil {
			break
		}
		got += len(b)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(items) || dec.Frames() < 2 {
		t.Fatalf("decoded %d items in %d frames, want %d items in >=2 frames",
			got, dec.Frames(), len(items))
	}
}

// TestBinaryForgedLengths pins the maxIDLen discipline: forged frame
// lengths, record counts, and identifier lengths are rejected by
// validation, not by attempting the allocation they claim to need.
func TestBinaryForgedLengths(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		bw := NewBinaryBatchWriter(&buf)
		if err := bw.WriteBatch(testHashedItems(3, 1)); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"bad magic": append([]byte("GSSX"), valid[4:]...),
		"frame length past cap": append(append([]byte{}, batchMagic[:]...),
			binary.AppendUvarint(nil, maxFrameBytes+1)...),
		"count past cap": func() []byte {
			b := append([]byte{}, batchMagic[:]...)
			body := binary.AppendUvarint(nil, maxFrameItems+1)
			b = binary.AppendUvarint(b, uint64(len(body)))
			return append(b, body...)
		}(),
		"count claims more records than the frame holds": func() []byte {
			b := append([]byte{}, batchMagic[:]...)
			body := binary.AppendUvarint(nil, 1000) // 1000 records, no bytes
			b = binary.AppendUvarint(b, uint64(len(body)))
			return append(b, body...)
		}(),
		"identifier length past maxIDLen": func() []byte {
			rec := make([]byte, hashedPrefixLen)
			var hs, hd uint64 = 1, 2
			binary.LittleEndian.PutUint64(rec[0:8], hs)
			binary.LittleEndian.PutUint64(rec[8:16], hd)
			binary.LittleEndian.PutUint32(rec[16:20], PackFingerprints(hs, hd))
			rec = binary.AppendUvarint(rec, maxIDLen+1)
			rec = append(rec, make([]byte, 64)...) // some bytes, far fewer than claimed
			b := append([]byte{}, batchMagic[:]...)
			body := binary.AppendUvarint(nil, 1)
			body = append(body, rec...)
			b = binary.AppendUvarint(b, uint64(len(body)))
			return append(b, body...)
		}(),
		"fingerprints disagree with hashes": func() []byte {
			it := HashItem(Item{Src: "a", Dst: "b", Weight: 1})
			it.FPs ^= 1
			rec := AppendHashedItem(nil, it)
			b := append([]byte{}, batchMagic[:]...)
			body := binary.AppendUvarint(nil, 1)
			body = append(body, rec...)
			b = binary.AppendUvarint(b, uint64(len(body)))
			return append(b, body...)
		}(),
		"trailing bytes after the frame's records": func() []byte {
			rec := AppendHashedItem(nil, HashItem(Item{Src: "a", Dst: "b", Weight: 1}))
			b := append([]byte{}, batchMagic[:]...)
			body := binary.AppendUvarint(nil, 1)
			body = append(body, rec...)
			body = append(body, 0xee)
			b = binary.AppendUvarint(b, uint64(len(body)))
			return append(b, body...)
		}(),
	}
	for name, data := range cases {
		dec := NewBinaryBatchDecoder(bytes.NewReader(data))
		for dec.Next() != nil {
		}
		if dec.Err() == nil {
			t.Errorf("%s: decoder accepted the stream", name)
		}
	}

	// Truncations of a valid stream never panic and never vouch for a
	// torn frame: every full frame decoded before the cut is fine, the
	// cut frame is not.
	for cut := 0; cut < len(valid); cut++ {
		dec := NewBinaryBatchDecoder(bytes.NewReader(valid[:cut]))
		for dec.Next() != nil {
		}
		if cut > 4 && dec.Err() == nil && dec.Items() != 0 {
			t.Fatalf("cut at %d: accepted %d items from a torn frame", cut, dec.Items())
		}
	}
}

// TestScanHashedRecordDifferential pins the router's fast scan to the
// reference decoder: on any byte prefix they agree on accept/reject,
// consumed length, and the routing key.
func TestScanHashedRecordDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rec []byte
	for trial := 0; trial < 2000; trial++ {
		it := HashItem(Item{
			Src:    fmt.Sprintf("s%d", rng.Intn(100)),
			Dst:    fmt.Sprintf("d%d", rng.Intn(100)),
			Time:   rng.Int63n(2000) - 1000,
			Weight: rng.Int63n(100) - 50,
			Label:  uint32(rng.Intn(10)),
		})
		rec = AppendHashedItem(rec[:0], it)
		// Exercise the intact record, truncations, and single-byte
		// corruptions.
		b := rec
		switch trial % 3 {
		case 1:
			b = rec[:rng.Intn(len(rec)+1)]
		case 2:
			b = append([]byte{}, rec...)
			b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
		}
		want, wantN, wantErr := DecodeHashedItem(b)
		hs, n, err := ScanHashedRecord(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("scan err=%v, decode err=%v on %x", err, wantErr, b)
		}
		if err == nil && (n != wantN || hs != want.HSrc) {
			t.Fatalf("scan (%d, %#x), decode (%d, %#x) on %x", n, hs, wantN, want.HSrc, b)
		}
	}
}

func FuzzBinaryBatchDecode(f *testing.F) {
	for _, seed := range binaryFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panic; whatever is accepted is internally consistent.
		dec := NewBinaryBatchDecoder(bytes.NewReader(data))
		var fresh []HashedItem
		for {
			b := dec.Next()
			if b == nil {
				break
			}
			for i := range b {
				if b[i].FPs != PackFingerprints(b[i].HSrc, b[i].HDst) {
					t.Fatalf("decoder vouched for inconsistent fingerprints: %+v", b[i])
				}
			}
			for i, p := range dec.Payloads() {
				it, n, err := DecodeItem(p)
				if err != nil || n != len(p) || it != b[i].Item {
					t.Fatalf("payload %d inconsistent with decoded item", i)
				}
			}
			fresh = append(fresh, b...)
		}
		freshErr := dec.Err()

		// Reuse mode decodes the same stream to the same items.
		dec2 := NewBinaryBatchDecoder(bytes.NewReader(data))
		dec2.SetReuse(true)
		var reused []HashedItem
		for {
			b := dec2.Next()
			if b == nil {
				break
			}
			reused = append(reused, b...)
		}
		if (freshErr == nil) != (dec2.Err() == nil) || !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("reuse decode diverged: %d vs %d items (%v vs %v)",
				len(fresh), len(reused), freshErr, dec2.Err())
		}

		// The router's record scan agrees with the reference decoder on
		// arbitrary bytes.
		want, wantN, wantErr := DecodeHashedItem(data)
		hs, n, err := ScanHashedRecord(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("scan err=%v, decode err=%v", err, wantErr)
		}
		if err == nil && (n != wantN || hs != want.HSrc) {
			t.Fatalf("scan (%d, %#x) != decode (%d, %#x)", n, hs, wantN, want.HSrc)
		}

		// What was accepted re-encodes and re-decodes identically.
		if len(fresh) == 0 {
			return
		}
		var buf bytes.Buffer
		bw := NewBinaryBatchWriter(&buf)
		if err := bw.WriteBatch(fresh); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("re-encode flush: %v", err)
		}
		again, err := ReadAllBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of writer output: %v", err)
		}
		if !reflect.DeepEqual(fresh, again) {
			t.Fatalf("round trip diverged")
		}
	})
}

// binaryFuzzSeeds builds the committed seed corpus for
// FuzzBinaryBatchDecode: valid streams, boundary shapes, and forgeries.
func binaryFuzzSeeds() [][]byte {
	valid := func(items []HashedItem, per int) []byte {
		var buf bytes.Buffer
		bw := NewBinaryBatchWriter(&buf)
		for i := 0; i < len(items); i += per {
			end := i + per
			if end > len(items) {
				end = len(items)
			}
			if err := bw.WriteBatch(items[i:end]); err != nil {
				panic(err)
			}
		}
		if err := bw.Flush(); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	small := HashItems([]Item{
		{Src: "a", Dst: "b", Weight: 1},
		{Src: "b", Dst: "c", Time: -5, Weight: -2, Label: 7},
		{Src: "", Dst: "", Weight: 0},
	}, nil)
	two := valid(small, 2)
	forgedFPs := append([]byte{}, two...)
	forgedFPs[len(forgedFPs)-1] ^= 0x40
	return [][]byte{
		valid(small, 3),
		two,
		valid(nil, 1),                 // magic only
		two[:len(two)-3],              // torn last frame
		append([]byte("GSSX"), 1, 2),  // wrong magic
		append([]byte{}, two[:11]...), // cut mid-record
		forgedFPs,                     // corrupt tail byte
		binary.AppendUvarint(append([]byte{}, batchMagic[:]...), maxFrameBytes+7), // forged frame length
	}
}

// TestBinaryWriterFrameAtByteCap: a batch whose records add up to
// exactly the frame byte cap still decodes — the frame body also holds
// the record-count varint, so the writer cuts before the records alone
// reach the cap.
func TestBinaryWriterFrameAtByteCap(t *testing.T) {
	// 8 records of exactly 1 MiB each: 20-byte hash prefix, 3-byte
	// length varint + src, then dst "d" and three 1-byte varints.
	const recLen = 1 << 20
	src := strings.Repeat("s", recLen-28)
	items := make([]Item, maxFrameBytes/recLen)
	for i := range items {
		items[i] = Item{Src: src, Dst: "d", Weight: 1}
	}
	if n := len(AppendHashedItem(nil, HashItem(items[0]))); n != recLen {
		t.Fatalf("record is %d bytes, want %d", n, recLen)
	}
	var buf bytes.Buffer
	bw := NewBinaryBatchWriter(&buf)
	if err := bw.WriteItems(items); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllBinary(&buf)
	if err != nil || len(got) != len(items) {
		t.Fatalf("decoded %d of %d items: %v", len(got), len(items), err)
	}
}
