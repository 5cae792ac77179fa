package grid

import "testing"

func TestStringMethods(t *testing.T) {
	sides := map[Side]string{West: "W", East: "E", South: "S", North: "N"}
	for s, want := range sides {
		if s.String() != want {
			t.Errorf("Side(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	corners := map[Corner]string{SW: "SW", SE: "SE", NW: "NW", NE: "NE"}
	for c, want := range corners {
		if c.String() != want {
			t.Errorf("Corner(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	dirs := map[Dir]string{
		DirW: "W", DirE: "E", DirS: "S", DirN: "N",
		DirSW: "SW", DirSE: "SE", DirNW: "NW", DirNE: "NE",
	}
	for d, want := range dirs {
		if d.String() != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
	poss := map[Pos]string{BL: "BL", BR: "BR", TL: "TL", TR: "TR"}
	for p, want := range poss {
		if p.String() != want {
			t.Errorf("Pos(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	kinds := map[AreaKind]string{AreaInterior: "interior", AreaCorner: "corner", AreaStrip: "strip"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("AreaKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestPosCoordRoundTrip(t *testing.T) {
	seen := map[[2]int]bool{}
	for p := Pos(0); p < NumPos; p++ {
		x, y := PosCoord(p)
		if x < 0 || x > 1 || y < 0 || y > 1 {
			t.Fatalf("PosCoord(%v) = (%d,%d) out of unit square", p, x, y)
		}
		if seen[[2]int{x, y}] {
			t.Fatalf("PosCoord(%v) duplicates (%d,%d)", p, x, y)
		}
		seen[[2]int{x, y}] = true
	}
}

func TestPosAcross(t *testing.T) {
	// Valid moves within the quartet.
	cases := []struct {
		from Pos
		s    Side
		to   Pos
	}{
		{BL, East, BR}, {BL, North, TL},
		{BR, West, BL}, {BR, North, TR},
		{TL, East, TR}, {TL, South, BL},
		{TR, West, TL}, {TR, South, BR},
	}
	for _, tc := range cases {
		got, ok := PosAcross(tc.from, tc.s)
		if !ok || got != tc.to {
			t.Errorf("PosAcross(%v, %v) = %v,%v, want %v,true", tc.from, tc.s, got, ok, tc.to)
		}
	}
	// Moves off the quartet.
	invalid := []struct {
		from Pos
		s    Side
	}{
		{BL, West}, {BL, South}, {BR, East}, {BR, South},
		{TL, West}, {TL, North}, {TR, East}, {TR, North},
	}
	for _, tc := range invalid {
		if _, ok := PosAcross(tc.from, tc.s); ok {
			t.Errorf("PosAcross(%v, %v) should be invalid", tc.from, tc.s)
		}
	}
}

// PosAcross and Dir deltas must agree: moving across side s from p lands
// on the position whose coordinate is p's plus the side's delta.
func TestPosAcrossConsistentWithDeltas(t *testing.T) {
	for p := Pos(0); p < NumPos; p++ {
		for s := Side(0); s < 4; s++ {
			px, py := PosCoord(p)
			dx, dy := Dir(s).Delta()
			wantX, wantY := px+dx, py+dy
			got, ok := PosAcross(p, s)
			if wantX < 0 || wantX > 1 || wantY < 0 || wantY > 1 {
				if ok {
					t.Errorf("PosAcross(%v,%v) = %v but target off-quartet", p, s, got)
				}
				continue
			}
			gx, gy := PosCoord(got)
			if !ok || gx != wantX || gy != wantY {
				t.Errorf("PosAcross(%v,%v) inconsistent with deltas", p, s)
			}
		}
	}
}
