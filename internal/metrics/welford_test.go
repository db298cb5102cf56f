package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := meanOf(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if s := stdDevOf(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("StdDev = %v", s)
	}
	if meanOf(nil) != 0 || stdDevOf(nil) != 0 || stdDevOf([]float64{1}) != 0 {
		t.Error("empty/singleton cases wrong")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		return math.Abs(w.Mean()-meanOf(xs)) < 1e-9 && w.N() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{5, -2, 9, 3} {
		w.Add(x)
	}
	if w.Min() != -2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	var whole, a, b Welford
	for i := range xs {
		xs[i] = r.Float64() * 100
		whole.Add(xs[i])
		if i%2 == 0 {
			a.Add(xs[i])
		} else {
			b.Add(xs[i])
		}
	}
	a.Merge(b)
	if a.N() != whole.N() ||
		math.Abs(a.Mean()-whole.Mean()) > 1e-9 ||
		math.Abs(a.m2-whole.m2) > 1e-6*whole.m2 ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merge mismatch: %+v vs %+v", a, whole)
	}
	// Merging into/with empty.
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Error("merge into empty failed")
	}
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Error("merge of empty changed state")
	}
}
