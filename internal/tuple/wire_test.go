package tuple

import "testing"

func TestPairWireRoundTrip(t *testing.T) {
	in := []Pair{{RID: 1, SID: 2}, {RID: -3, SID: 1 << 50}, {}}
	var buf []byte
	for _, p := range in {
		buf = AppendPair(buf, p)
	}
	if len(buf) != len(in)*PairWireSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(in)*PairWireSize)
	}
	for i, want := range in {
		got, err := DecodePair(buf[i*PairWireSize:])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("pair %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := DecodePair(buf[:8]); err == nil {
		t.Fatal("short pair buffer accepted")
	}
}
