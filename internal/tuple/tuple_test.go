package tuple

import (
	"testing"

	"spatialjoin/internal/geom"
)

func TestSetString(t *testing.T) {
	if R.String() != "R" || S.String() != "S" {
		t.Errorf("Set.String: got %q, %q", R.String(), S.String())
	}
}

func TestSetOther(t *testing.T) {
	if R.Other() != S || S.Other() != R {
		t.Error("Other must flip the set")
	}
}

func TestSerializedSize(t *testing.T) {
	tu := Tuple{ID: 1, Pt: geom.Point{X: 1, Y: 2}}
	if got := tu.SerializedSize(); got != 24 {
		t.Errorf("empty payload size = %d, want 24", got)
	}
	tu.Payload = make([]byte, 100)
	if got := tu.SerializedSize(); got != 124 {
		t.Errorf("payload size = %d, want 124", got)
	}
	if got := tu.KeyedSize(); got != 132 {
		t.Errorf("keyed size = %d, want 132", got)
	}
}

func TestFactors(t *testing.T) {
	if len(Factors) != 5 {
		t.Fatalf("expected 5 tuple size factors, got %d", len(Factors))
	}
	if Factors[0] != 0 {
		t.Errorf("f0 must carry no payload, got %d", Factors[0])
	}
	for i := 1; i < len(Factors); i++ {
		if Factors[i] <= Factors[i-1] {
			t.Errorf("factors must be increasing: f%d=%d <= f%d=%d", i, Factors[i], i-1, Factors[i-1])
		}
	}
	if FactorName(2) != "f2" {
		t.Errorf("FactorName(2) = %q", FactorName(2))
	}
	if FactorName(9) != "f?" {
		t.Errorf("FactorName(9) = %q", FactorName(9))
	}
}

func TestWithPayloads(t *testing.T) {
	ts := FromPoints([]geom.Point{{X: 1}, {X: 2}}, 10)
	out := WithPayloads(ts, 64)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	for i, tu := range out {
		if len(tu.Payload) != 64 {
			t.Errorf("tuple %d payload = %d bytes, want 64", i, len(tu.Payload))
		}
		if tu.ID != ts[i].ID || tu.Pt != ts[i].Pt {
			t.Errorf("tuple %d identity changed", i)
		}
	}
	// Zero size leaves the slice untouched.
	same := WithPayloads(ts, 0)
	if &same[0] != &ts[0] {
		t.Error("WithPayloads(0) should return the input slice")
	}
}

func TestFromPointsAndPoints(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	ts := FromPoints(pts, 100)
	if ts[0].ID != 100 || ts[1].ID != 101 {
		t.Errorf("sequential IDs: got %d, %d", ts[0].ID, ts[1].ID)
	}
	for i := range pts {
		if ts[i].Pt != pts[i] {
			t.Errorf("round trip mismatch at %d", i)
		}
	}
}
