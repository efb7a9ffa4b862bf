package ga

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"fourindex/internal/sym"
	"fourindex/internal/tile"
)

func grids(n, t, dims int) []tile.Grid {
	g := tile.NewGrid(n, t)
	out := make([]tile.Grid, dims)
	for i := range out {
		out[i] = g
	}
	return out
}

func TestCreateTiledPlain(t *testing.T) {
	rt := newExec(t, 2)
	a, err := rt.CreateTiled("T", grids(6, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTiles() != 9 {
		t.Errorf("NumTiles = %d, want 9", a.NumTiles())
	}
	if a.Bytes() != 6*6*8 {
		t.Errorf("Bytes = %d, want full 6x6 matrix", a.Bytes())
	}
	rt.DestroyTiled(a)
}

func TestCreateTiledSymmetricStorage(t *testing.T) {
	rt := newExec(t, 2)
	// 4D tensor with both pairs symmetric at 3x3 tile blocks of width 2.
	a, err := rt.CreateTiled("A", grids(6, 2, 4), [][2]int{{0, 1}, {2, 3}}, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical blocks per pair: Pairs(3) = 6; each block 2*2 = 4
	// elements per pair dim -> total = (6*4)^2 = 576 words.
	if a.NumTiles() != 36 {
		t.Errorf("NumTiles = %d, want 36", a.NumTiles())
	}
	if a.Bytes() != 576*8 {
		t.Errorf("Bytes = %d, want %d", a.Bytes(), 576*8)
	}
	// Block-symmetric storage is bounded by full size and close to the
	// packed Table 1 count for fine tilings.
	full := int64(6 * 6 * 6 * 6 * 8)
	if a.Bytes() >= full {
		t.Error("symmetric storage should be far below full")
	}
	packed := sym.ExactSizes(6, 1).A * 8
	if a.Bytes() < packed {
		t.Error("block storage cannot be below exact packed size")
	}
	rt.DestroyTiled(a)
}

func TestCreateTiledValidation(t *testing.T) {
	rt := newExec(t, 1)
	if _, err := rt.CreateTiled("x", nil, nil, tile.RoundRobin); err == nil {
		t.Error("no dims should error")
	}
	if _, err := rt.CreateTiled("x", grids(4, 2, 2), [][2]int{{0, 2}}, tile.RoundRobin); err == nil {
		t.Error("non-adjacent pair should error")
	}
	gs := []tile.Grid{tile.NewGrid(4, 2), tile.NewGrid(4, 3)}
	if _, err := rt.CreateTiled("x", gs, [][2]int{{0, 1}}, tile.RoundRobin); err == nil {
		t.Error("mismatched pair grids should error")
	}
	if _, err := rt.CreateTiled("x", grids(4, 2, 3), [][2]int{{0, 1}, {1, 2}}, tile.RoundRobin); err == nil {
		t.Error("overlapping pairs should error")
	}
}

func TestTiledPutGetRoundTrip(t *testing.T) {
	rt := newExec(t, 3)
	a, _ := rt.CreateTiled("T", grids(5, 2, 3), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		shape := a.TileShape([]int{1, 1, 2})
		if shape[0] != 2 || shape[1] != 2 || shape[2] != 1 { // ragged last dim
			t.Errorf("shape = %v", shape)
		}
		w := a.TileWords([]int{1, 1, 2})
		buf := make([]float64, w)
		for i := range buf {
			buf[i] = float64(i) + 1
		}
		p.PutT(a, buf, 1, 1, 2)
		got := make([]float64, w)
		if n := p.GetT(a, got, 1, 1, 2); n != w {
			t.Errorf("GetT returned %d words, want %d", n, w)
		}
		for i := range got {
			if got[i] != buf[i] {
				t.Errorf("got[%d] = %v", i, got[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTiledGetUnwrittenIsZero(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	_ = rt.Parallel(func(p *Proc) {
		buf := []float64{9, 9, 9, 9}
		p.GetT(a, buf, 0, 0)
		for _, v := range buf {
			if v != 0 {
				t.Error("unwritten tile should read as zeros")
			}
		}
	})
}

func TestTiledAccAccumulates(t *testing.T) {
	rt := newExec(t, 4)
	a, _ := rt.CreateTiled("C", grids(4, 2, 2), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		buf := []float64{1, 1, 1, 1}
		p.AccT(a, 2, buf, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		got := make([]float64, 4)
		p.GetT(a, got, 1, 0)
		for _, v := range got {
			if v != 8 { // 4 procs x alpha 2
				t.Errorf("acc value = %v, want 8", v)
			}
		}
	})
}

func TestTiledNonCanonicalPanics(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("A", grids(4, 2, 2), [][2]int{{0, 1}}, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		p.GetT(a, make([]float64, 4), 0, 1) // t0 < t1: non-canonical
	})
	if err == nil {
		t.Error("non-canonical symmetric tile access should fail")
	}
}

func TestTiledRemoteAccounting(t *testing.T) {
	rt := newExec(t, 2)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	// 4 tiles round-robin: tile (0,0) id 0 -> proc 0, (0,1) id 1 -> proc 1.
	err := rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		buf := make([]float64, 4)
		p.PutT(a, buf, 0, 0) // local
		p.PutT(a, buf, 0, 1) // remote
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.CommVolume() != 4 || rt.IntraVolume() != 4 {
		t.Errorf("comm=%d intra=%d, want 4/4", rt.CommVolume(), rt.IntraVolume())
	}
}

func TestTiledGlobalOOM(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Cost, GlobalMemBytes: 100})
	if _, err := rt.CreateTiled("big", grids(100, 10, 2), nil, tile.RoundRobin); !errors.Is(err, ErrGlobalOOM) {
		t.Errorf("want ErrGlobalOOM, got %v", err)
	}
}

func TestTiledCostModeHugeTensor(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 4, Mode: Cost})
	// n = 1194 (Shell-Mixed) with 40-wide tiles: must be fast and
	// allocation-free.
	a, err := rt.CreateTiled("A", grids(1194, 40, 4), [][2]int{{0, 1}, {2, 3}}, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	n4 := int64(1194) * 1194 * 1194 * 1194
	// Block-symmetric ~ n^4/4 within ~10%.
	ratio := float64(a.Bytes()) / (float64(n4) / 4 * 8)
	if ratio < 1.0 || ratio > 1.10 {
		t.Errorf("block-symmetric overhead ratio = %v", ratio)
	}
	err = rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			w := p.GetT(a, nil, 5, 3, 7, 2)
			if w != 40*40*40*40 {
				t.Errorf("tile words = %d", w)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.DestroyTiled(a)
}

func TestTiledStrict(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Execute, Strict: true})
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	if err := rt.Parallel(func(p *Proc) {
		p.GetT(a, make([]float64, 4), 0, 0)
	}); err == nil {
		t.Error("strict GetT of unwritten tile should fail")
	}
	if err := rt.Parallel(func(p *Proc) {
		p.AccT(a, 1, make([]float64, 4), 0, 0)
		p.GetT(a, make([]float64, 4), 0, 0)
	}); err != nil {
		t.Errorf("Acc marks written: %v", err)
	}
}

func TestTiledDoubleDestroyPanics(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	rt.DestroyTiled(a)
	defer func() {
		if recover() == nil {
			t.Error("double destroy did not panic")
		}
	}()
	rt.DestroyTiled(a)
}

func TestTiledOwnerStable(t *testing.T) {
	rt := newExec(t, 3)
	a, _ := rt.CreateTiled("A", grids(6, 2, 4), [][2]int{{0, 1}}, tile.RoundRobin)
	// Owner must be deterministic and in range.
	for ti := 0; ti < 3; ti++ {
		for tj := 0; tj <= ti; tj++ {
			o := a.Owner(ti, tj, 0, 1)
			if o < 0 || o >= 3 {
				t.Fatalf("owner %d out of range", o)
			}
			if o != a.Owner(ti, tj, 0, 1) {
				t.Fatal("owner not deterministic")
			}
		}
	}
}

// tiledShape is one tensor geometry of the iteration tests: per-dim
// grids (ragged where N is not a multiple of T) and symmetric pairs.
type tiledShape struct {
	grids []tile.Grid
	pairs [][2]int
}

// tiledShapes covers 1-4 dims with 0, 1 and 2 symmetric pairs, ragged
// and exact grids, and an empty dimension.
func tiledShapes() []tiledShape {
	g := tile.NewGrid
	return []tiledShape{
		{grids: []tile.Grid{g(7, 3)}},
		{grids: []tile.Grid{g(0, 3)}},
		{grids: []tile.Grid{g(7, 3), g(4, 4)}},
		{grids: []tile.Grid{g(7, 3), g(7, 3)}, pairs: [][2]int{{0, 1}}},
		{grids: []tile.Grid{g(5, 2), g(6, 2), g(6, 2)}, pairs: [][2]int{{1, 2}}},
		{grids: []tile.Grid{g(9, 2), g(9, 2), g(3, 3)}, pairs: [][2]int{{0, 1}}},
		{grids: []tile.Grid{g(5, 2), g(6, 4), g(3, 1), g(7, 3)}},
		{grids: []tile.Grid{g(7, 3), g(7, 3), g(5, 2), g(4, 3)}, pairs: [][2]int{{0, 1}}},
		{grids: []tile.Grid{g(5, 3), g(7, 2), g(7, 2), g(4, 4)}, pairs: [][2]int{{1, 2}}},
		{grids: []tile.Grid{g(6, 4), g(6, 4), g(7, 3), g(7, 3)}, pairs: [][2]int{{0, 1}, {2, 3}}},
		{grids: []tile.Grid{g(8, 2), g(8, 2), g(5, 5), g(5, 5)}, pairs: [][2]int{{0, 1}, {2, 3}}},
		{grids: []tile.Grid{g(0, 2), g(0, 2), g(5, 2), g(5, 2)}, pairs: [][2]int{{0, 1}, {2, 3}}},
	}
}

// canonicalTiles lists a tensor's canonical tiles in ForEachTile order.
func canonicalTiles(a *TiledArray) [][]int {
	var out [][]int
	a.ForEachTile(func(c []int) { out = append(out, slices.Clone(c)) })
	return out
}

// ForEachTile visits every canonical tile once, in increasing
// canonical id order, and the id is the visit index.
func TestForEachTileOrder(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 3, Mode: Cost})
	for _, sh := range tiledShapes() {
		a, err := rt.CreateTiled("T", sh.grids, sh.pairs, tile.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		for d := 0; d < len(sh.grids); d++ {
			if slices.Contains(sh.pairs, [2]int{d, d + 1}) {
				want *= sym.Pairs(sh.grids[d].NumTiles())
				d++
				continue
			}
			want *= sh.grids[d].NumTiles()
		}
		tiles := canonicalTiles(a)
		if len(tiles) != want || a.NumTiles() != want {
			t.Errorf("%v %v: %d tiles visited, NumTiles %d, want %d", sh.grids, sh.pairs, len(tiles), a.NumTiles(), want)
		}
		for i, c := range tiles {
			if id := a.canonicalID(c); id != i {
				t.Errorf("%v %v: tile %v has id %d at visit %d", sh.grids, sh.pairs, c, id, i)
			}
			if i > 0 && slices.Compare(tiles[i-1], c) >= 0 {
				t.Errorf("%v %v: %v visited after %v", sh.grids, sh.pairs, c, tiles[i-1])
			}
		}
		rt.DestroyTiled(a)
	}
}

// ForEachOwnedTile partitions ForEachTile: each process's visits are
// ForEachTile filtered by Owner, in the same order, and together they
// cover every tile exactly once. Covers every policy, one process and
// more processes than tiles.
func TestForEachOwnedTilePartition(t *testing.T) {
	type policy struct {
		pol   tile.Policy
		block int
	}
	policies := []policy{{tile.RoundRobin, 1}, {tile.Block, 1}, {tile.BlockCyclic, 1}, {tile.BlockCyclic, 3}}
	for _, procs := range []int{1, 3, 4, 100} {
		rt, _ := NewRuntime(Config{Procs: procs, Mode: Cost})
		for _, sh := range tiledShapes() {
			for _, pc := range policies {
				a, err := rt.CreateTiled("T", sh.grids, sh.pairs, pc.pol)
				if err != nil {
					t.Fatal(err)
				}
				a.Dist = tile.NewDist(a.NumTiles(), procs, pc.pol, pc.block)
				name := fmt.Sprintf("%v %v %v/block %d on %d procs", sh.grids, sh.pairs, pc.pol, pc.block, procs)
				all := canonicalTiles(a)
				seen := map[string]int{}
				for p := 0; p < procs; p++ {
					var want, got [][]int
					for _, c := range all {
						if a.Owner(c...) == p {
							want = append(want, c)
						}
					}
					a.ForEachOwnedTile(p, func(c []int) {
						got = append(got, slices.Clone(c))
						seen[fmt.Sprint(c)]++
					})
					if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
						t.Errorf("%s: process %d visits %v, want %v", name, p, got, want)
					}
				}
				if len(seen) != len(all) {
					t.Errorf("%s: processes visit %d distinct tiles, want %d", name, len(seen), len(all))
				}
				for c, k := range seen {
					if k != 1 {
						t.Errorf("%s: tile %s visited %d times", name, c, k)
					}
				}
				rt.DestroyTiled(a)
			}
		}
	}
}

// A dense tensor's closed-form Bytes equals the sum of its tile sizes.
func TestTiledDenseBytesClosedForm(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 2, Mode: Cost})
	for _, sh := range tiledShapes() {
		a, err := rt.CreateTiled("T", sh.grids, sh.pairs, tile.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		var words int64
		a.ForEachTile(func(c []int) { words += int64(a.TileWords(c)) })
		if a.Bytes() != 8*words {
			t.Errorf("%v %v: Bytes = %d, want %d", sh.grids, sh.pairs, a.Bytes(), 8*words)
		}
		rt.DestroyTiled(a)
	}
}
