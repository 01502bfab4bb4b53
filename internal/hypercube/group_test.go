package hypercube

import "testing"

// groupCells against the definition of the grouping strategy: the g
// left groups and g right groups pair up on a g×g grid, so a row and a
// column — whatever hashes put a tuple there — share exactly one
// server, every line has g distinct servers below g², and the rows
// (and the columns) partition the grid.
func TestGroupCellsMeetInOneServer(t *testing.T) {
	for _, g := range []int{1, 2, 3, 5} {
		for _, left := range []bool{true, false} {
			covered := map[int]bool{}
			for h := 0; h < g; h++ {
				line := groupCells(g, left, uint64(h))
				if len(line) != g {
					t.Fatalf("g=%d left=%v h=%d: %d cells, want %d", g, left, h, len(line), g)
				}
				for _, s := range line {
					if s < 0 || s >= g*g || covered[s] {
						t.Errorf("g=%d left=%v h=%d: cell %d out of range or in two lines", g, left, h, s)
					}
					covered[s] = true
				}
			}
		}
		for i := 0; i < 3*g; i++ {
			inRow := map[int]bool{}
			for _, s := range groupCells(g, true, uint64(i)) {
				inRow[s] = true
			}
			for j := 0; j < 3*g; j++ {
				var meet []int
				for _, s := range groupCells(g, false, uint64(j)) {
					if inRow[s] {
						meet = append(meet, s)
					}
				}
				if want := (i%g)*g + j%g; len(meet) != 1 || meet[0] != want {
					t.Errorf("g=%d: row of hash %d and column of hash %d meet in %v, want [%d]", g, i, j, meet, want)
				}
			}
		}
	}
	for p, want := range map[int]int{0: 1, 1: 1, 3: 1, 4: 2, 8: 2, 9: 3, 24: 4, 25: 5} {
		if g := groupSide(p); g != want {
			t.Errorf("groupSide(%d) = %d, want %d", p, g, want)
		}
	}
}
