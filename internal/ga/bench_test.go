package ga

import (
	"testing"

	"fourindex/internal/tile"
)

func BenchmarkTiledGetPut(b *testing.B) {
	rt, _ := NewRuntime(Config{Procs: 4, Mode: Execute})
	a, _ := rt.CreateTiled("T", []tile.Grid{tile.NewGrid(64, 16), tile.NewGrid(64, 16)}, nil, tile.RoundRobin)
	buf := make([]float64, 16*16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Parallel(func(p *Proc) {
			if p.ID() != 0 {
				return
			}
			p.PutT(a, buf, i%4, (i+1)%4)
			p.GetT(a, buf, i%4, (i+1)%4)
		})
	}
}

func BenchmarkTiledCostModeOps(b *testing.B) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Cost})
	a, _ := rt.CreateTiled("T", []tile.Grid{tile.NewGrid(1024, 32), tile.NewGrid(1024, 32)}, nil, tile.RoundRobin)
	b.ResetTimer()
	_ = rt.Parallel(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.GetT(a, nil, i%32, (i*7)%32)
		}
	})
}

func BenchmarkParallelRegion(b *testing.B) {
	rt, _ := NewRuntime(Config{Procs: 16, Mode: Cost})
	for i := 0; i < b.N; i++ {
		_ = rt.Parallel(func(p *Proc) { p.Compute(1) })
	}
}

// BenchmarkGetTReadPath contrasts the two GetT read paths with eight
// processes hammering one shared tile: "locked" through the per-tile
// RWMutex of a mutable tensor, "frozen" lock-free after Freeze (the
// immutable-after-sync path the schedules use for frozen inputs and
// intermediates). The tile is small so the copy stays cheap and the
// contrast is the lock acquisition itself. ns/op is per read per
// process.
func BenchmarkGetTReadPath(b *testing.B) {
	const procs, dim = 8, 8
	for _, frozen := range []bool{false, true} {
		name := "locked"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			rt, err := NewRuntime(Config{Procs: procs, Mode: Execute})
			if err != nil {
				b.Fatal(err)
			}
			g := tile.NewGrid(dim, dim)
			a, err := rt.CreateTiled("readpath", []tile.Grid{g, g}, nil, tile.RoundRobin)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.DestroyTiled(a)
			init := make([]float64, dim*dim)
			for i := range init {
				init[i] = float64(i)
			}
			if err := rt.Parallel(func(p *Proc) {
				if p.ID() == 0 {
					p.PutT(a, init, 0, 0)
				}
			}); err != nil {
				b.Fatal(err)
			}
			if frozen {
				a.Freeze()
			}
			b.ResetTimer()
			if err := rt.Parallel(func(p *Proc) {
				buf := p.MustAllocLocal(dim * dim)
				defer p.FreeLocal(buf)
				for i := 0; i < b.N; i++ {
					p.GetT(a, buf.Data, 0, 0)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
