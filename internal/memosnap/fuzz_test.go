package memosnap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes, as any peer can through
// POST /v1/memos. Decode must never panic, must refuse with one of the
// two sentinel errors, and anything it accepts must re-encode to the
// identical bytes: one encoding per snapshot. Each input is also tried
// with its checksum repaired, so mutated bodies reach the body parser
// instead of stopping at the CRC check. Seeds live in testdata/fuzz.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleSnapshot()))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= headerSize {
			fixed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(fixed[10:14], crc32.ChecksumIEEE(fixed[headerSize:]))
			checkDecode(t, fixed)
		}
	})
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	s, err := Decode(data)
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrUnknownSnapshotVersion) {
			t.Fatalf("Decode refused with %v, want ErrCorruptSnapshot or ErrUnknownSnapshotVersion", err)
		}
		return
	}
	if re := Encode(s); !bytes.Equal(re, data) {
		t.Fatalf("decoded snapshot re-encodes to different bytes:\n in %x\nout %x", data, re)
	}
}
