package stream_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/stream"
)

// FuzzStreamRestore feeds arbitrary checkpoint blobs to Restore, each as
// given and resealed (its last four bytes replaced by the checksum of the
// rest, so mutations reach the decoder behind the checksum). Restore must
// either refuse a blob or return an engine that re-encodes to exactly
// that blob.
func FuzzStreamRestore(f *testing.F) {
	fixture, err := os.ReadFile(fixtureSJSE)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		restoreReencodes(t, blob)
		if len(blob) >= 4 {
			restoreReencodes(t, codec.Seal(slices.Clone(blob[:len(blob)-4])))
		}
	})
}

func restoreReencodes(t *testing.T, blob []byte) {
	e, err := stream.Restore(ckptConfig(nil), blob)
	if err != nil {
		return
	}
	defer e.Close()
	var enc bytes.Buffer
	if err := e.WriteCheckpoint(&enc); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if !bytes.Equal(enc.Bytes(), blob) {
		t.Fatalf("restored engine re-encodes to %d bytes that differ from the %d-byte input", enc.Len(), len(blob))
	}
}
