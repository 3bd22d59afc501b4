package incr_test

import (
	"os"
	"testing"

	"sparrow/internal/incr"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder, the
// parser behind -snapshot-in, which reads untrusted files. The seeds are a
// real snapshot of a corpus-file solve plus truncated and byte-flipped
// copies of it. Decode must never panic: it either returns an error, or a
// cache whose encoding decodes again.
func FuzzSnapshotDecode(f *testing.F) {
	src, err := os.ReadFile("../../testdata/corpus/linkedlist.c")
	if err != nil {
		f.Fatal(err)
	}
	data, err := solveInto(f, string(src)).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{1, len(data) / 3, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, i := range []int{0, len(data) / 4, len(data) / 2, len(data) - 2} {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := incr.Decode(b)
		if err != nil {
			return
		}
		again, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot does not encode: %v", err)
		}
		if _, err := incr.Decode(again); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}
