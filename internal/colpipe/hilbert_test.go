package colpipe

import (
	"slices"
	"testing"
)

// hilbertRanksBySort is the reference HilbertRanks: the Hilbert distance
// of every cell on the smallest power-of-two square holding the grid,
// then the cells sorted by it.
func hilbertRanksBySort(nx, ny int) []int32 {
	side := uint32(1)
	for int(side) < max(nx, ny) {
		side <<= 1
	}
	n := nx * ny
	keys := make([]uint64, n)
	order := make([]int32, n)
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			id := cy*nx + cx
			keys[id] = hilbertD(side, uint32(cx), uint32(cy))
			order[id] = int32(id)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		if ka < kb {
			return -1
		}
		if ka > kb {
			return 1
		}
		return 0
	})
	ranks := make([]int32, n)
	for rank, cell := range order {
		ranks[cell] = int32(rank)
	}
	return ranks
}

// hilbertD converts (x, y) on a side×side grid (side a power of two)
// to its distance along the Hilbert curve.
func hilbertD(side, x, y uint32) uint64 {
	var d uint64
	for s := side / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// checkHilbertRanks fails unless HilbertRanks(nx, ny) equals the
// sort-based reference.
func checkHilbertRanks(t *testing.T, nx, ny int) {
	t.Helper()
	got, want := HilbertRanks(nx, ny), hilbertRanksBySort(nx, ny)
	if len(got) != len(want) {
		t.Fatalf("%d×%d: %d ranks, want %d", nx, ny, len(got), len(want))
	}
	for cell := range want {
		if got[cell] != want[cell] {
			t.Fatalf("%d×%d: cell %d (%d, %d) has rank %d, want %d", nx, ny, cell, cell%nx, cell/nx, got[cell], want[cell])
		}
	}
}

// TestHilbertRanksMatchesSort: the pruned curve walk ranks every cell as
// sorting the cells by Hilbert distance does, on square, wide, tall and
// degenerate grids — 2²⁰×1 among them, whose enclosing square has 2⁴⁰
// cells.
func TestHilbertRanksMatchesSort(t *testing.T) {
	for _, dims := range [][2]int{
		{0, 0}, {0, 5}, {1, 1}, {1, 7}, {7, 1}, {1, 64}, {64, 1}, {3, 5}, {5, 3},
		{17, 33}, {33, 17}, {317, 317}, {1000, 3}, {3, 1000}, {1 << 20, 1}, {1, 1 << 20},
	} {
		checkHilbertRanks(t, dims[0], dims[1])
	}
}

// FuzzHilbertRanks checks small grids of any shape against the
// sort-based reference.
func FuzzHilbertRanks(f *testing.F) {
	for _, dims := range [][2]uint8{{1, 1}, {3, 5}, {5, 3}, {17, 33}, {255, 2}, {2, 255}} {
		f.Add(dims[0], dims[1])
	}
	f.Fuzz(func(t *testing.T, nx, ny uint8) {
		checkHilbertRanks(t, int(nx), int(ny))
	})
}
