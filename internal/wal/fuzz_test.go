package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeAll feeds arbitrary bytes to the log reader. The committed
// corpus under testdata/fuzz holds valid logs, every torn-tail shape,
// zero tails, nonzero bytes after a zero header, unknown flags and
// sequence gaps. The invariants:
//
//   - decoding never panics;
//   - Tail.Offset is a multiple of the record length and at most len(b);
//   - re-encoding the decoded records reproduces b[:Offset] exactly;
//   - a clean tail has no reason and a torn one has one;
//   - appending zeros to a clean log changes neither the records nor
//     the tail.
func FuzzDecodeAll(f *testing.F) {
	var log []byte
	for s := int64(1); s <= 3; s++ {
		log = appendRecord(log, rec(s, s%2 == 1))
	}
	f.Add([]byte{})
	f.Add(log)
	f.Add(append(append([]byte(nil), log...), make([]byte, 100)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, tail := DecodeAll(b)
		if tail.Offset < 0 || tail.Offset > int64(len(b)) || tail.Offset%recordLen != 0 {
			t.Fatalf("tail offset %d for %d bytes", tail.Offset, len(b))
		}
		if int64(len(recs))*recordLen != tail.Offset {
			t.Fatalf("%d records end at %d", len(recs), tail.Offset)
		}
		if tail.Clean != (tail.Reason == "") {
			t.Fatalf("tail %+v", tail)
		}
		var enc []byte
		for _, r := range recs {
			enc = appendRecord(enc, r)
		}
		if !bytes.Equal(enc, b[:tail.Offset]) {
			t.Fatalf("re-encoding %d records does not reproduce the valid prefix", len(recs))
		}
		if !tail.Clean {
			return
		}
		for _, n := range []int{1, headerLen, recordLen + 1} {
			padded := append(append([]byte(nil), b...), make([]byte, n)...)
			got, gotTail := DecodeAll(padded)
			var gotEnc []byte // compared as bytes: a NaN field is != itself
			for _, r := range got {
				gotEnc = appendRecord(gotEnc, r)
			}
			if gotTail != tail || !bytes.Equal(gotEnc, enc) {
				t.Fatalf("%d zeros appended: %d records, tail %+v; before: %d records, tail %+v",
					n, len(got), gotTail, len(recs), tail)
			}
		}
	})
}
