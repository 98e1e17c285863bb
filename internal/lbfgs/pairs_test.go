package lbfgs

import (
	"math"
	"math/rand"
	"testing"
)

// freshUpdate is the reference Update: a new (s, y) pair every call, the
// oldest dropped once the window exceeds Memory. State.Update must give the
// same window, bit for bit, while recycling the pair buffers.
func freshUpdate(st *State, w, g []float64) {
	if st.prevW != nil {
		s := make([]float64, len(w))
		y := make([]float64, len(g))
		for i := range w {
			s[i] = w[i] - st.prevW[i]
			y[i] = g[i] - st.prevG[i]
		}
		if ys := dot(y, s); ys > 1e-12 {
			st.pairs = append(st.pairs, pair{s: s, y: y, rho: 1 / ys})
			if len(st.pairs) > st.opts.Memory {
				st.pairs = st.pairs[1:]
			}
		}
	} else {
		st.prevW = make([]float64, len(w))
		st.prevG = make([]float64, len(g))
	}
	copy(st.prevW, w)
	copy(st.prevG, g)
}

// TestUpdateRecyclesPairsBitIdentical drives the recycling State and the
// fresh-pair reference through the same iterates — a third of them with
// rejected curvature (y = −s, or no move at all) — and compares every
// Direction bit for bit.
func TestUpdateRecyclesPairsBitIdentical(t *testing.T) {
	const dim = 40
	rng := rand.New(rand.NewSource(7))
	for _, mem := range []int{1, 3, 8} {
		got, want := New(Options{Memory: mem}), New(Options{Memory: mem})
		w, g := make([]float64, dim), make([]float64, dim)
		for it := 0; it < 40; it++ {
			prevW, prevG := append([]float64(nil), w...), append([]float64(nil), g...)
			for i := range w {
				w[i] += rng.NormFloat64()
				g[i] += rng.NormFloat64()
			}
			switch it % 6 {
			case 2: // negative curvature: y = −s
				for i := range g {
					g[i] = prevG[i] - (w[i] - prevW[i])
				}
			case 4: // no move: s = y = 0
				copy(w, prevW)
				copy(g, prevG)
			}
			got.Update(w, g)
			freshUpdate(want, w, g)
			if got.Pairs() != want.Pairs() {
				t.Fatalf("memory %d iteration %d: %d pairs, reference %d", mem, it, got.Pairs(), want.Pairs())
			}
			dg := append([]float64(nil), got.Direction(g)...)
			dw := want.Direction(g)
			for i := range dg {
				if math.Float64bits(dg[i]) != math.Float64bits(dw[i]) {
					t.Fatalf("memory %d iteration %d: direction[%d] = %v, reference %v", mem, it, i, dg[i], dw[i])
				}
			}
		}
	}
}

// TestUpdateSteadyStateAllocs pins the recycling: once the window has been
// full for two updates, one more Update allocates nothing, whether the
// curvature test accepts the pair or rejects it.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	const dim, mem = 64, 4
	rng := rand.New(rand.NewSource(3))
	a, b := make([]float64, dim), make([]float64, dim)
	ga, gb, gc := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		ga[i] = rng.NormFloat64()
		gb[i] = ga[i] + (b[i] - a[i]) // (b−a)·(gb−ga) > 0: accepted
		gc[i] = ga[i] - (b[i] - a[i]) // (b−a)·(gc−ga) < 0: rejected
	}
	for _, tc := range []struct {
		name   string
		gOther []float64
	}{{"accepted", gb}, {"rejected", gc}} {
		st := New(Options{Memory: mem})
		i, other := 0, gb
		step := func() {
			if i%2 == 0 {
				st.Update(a, ga)
			} else {
				st.Update(b, other)
			}
			i++
		}
		for range mem + 2 { // fill the window with accepted pairs
			step()
		}
		other = tc.gOther
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("%s: steady-state Update allocates %v times, want 0", tc.name, allocs)
		}
		if st.Pairs() != mem {
			t.Errorf("%s: %d pairs, want %d", tc.name, st.Pairs(), mem)
		}
	}
}
