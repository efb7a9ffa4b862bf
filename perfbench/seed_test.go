package main

import (
	"fmt"
	"slices"
	"testing"
)

// opSequence lists the first n ops a workload runs for a seed, as the
// program sees them: the generated inputs and their order.
func opSequence(workload string, seed uint64, n int) ([]string, error) {
	var out []string
	switch workload {
	case "execute":
		opt, err := execOptions(seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("hybrid n=%d spec-seed=%d", opt.Spec.N, opt.Spec.Seed))
		}
	case "plan":
		pts := planPoints()
		for pass := 0; len(out) < n; pass++ {
			for _, k := range planOrder(seed, pass, len(pts)) {
				out = append(out, pointName(pts[k]))
			}
		}
		out = out[:n]
	case "serve":
		kinds, err := serveKinds(seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			k := serveKindAt(seed, i)
			out = append(out, fmt.Sprintf("%s spec-seed=%d", kindNames[k], kinds[k].Seed))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return out, nil
}

// TestOpSequenceSeeded pins the seed contract: one seed gives the same
// op sequence twice, and two seeds give different sequences.
func TestOpSequenceSeeded(t *testing.T) {
	for _, w := range []string{"execute", "plan", "serve"} {
		a, err := opSequence(w, 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := opSequence(w, 1, 40)
		c, _ := opSequence(w, 2, 40)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", w)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence %v", w, a)
		}
	}
}
