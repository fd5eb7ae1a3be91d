package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n         int
		want      float64
		q, value  float64
		reachable bool
	}{
		// 1000 samples: p99 is the 990th, with exactly 10 beyond it.
		{n: 1000, want: 0.99, q: 0.99, value: 990, reachable: true},
		// 2000 samples leave 20 beyond p99.
		{n: 2000, want: 0.99, q: 0.99, value: 1980, reachable: true},
		// 500 samples: p99 would leave 5 beyond, so the rule falls back
		// to the highest percentile leaving 10, p98.
		{n: 500, want: 0.99, q: 0.98, value: 490, reachable: true},
		// The median needs 10 beyond it too.
		{n: 20, want: 0.50, q: 0.50, value: 10, reachable: true},
		{n: 15, want: 0.50, q: 1.0 / 3, value: 5, reachable: true},
		// Ten samples or fewer leave nothing reportable.
		{n: 10, want: 0.50, reachable: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.want)
		if ok != c.reachable {
			t.Fatalf("n=%d want=%v: ok=%v, want %v", c.n, c.want, ok, c.reachable)
		}
		if got.N != c.n {
			t.Errorf("n=%d: reported sample count %d", c.n, got.N)
		}
		if !ok {
			continue
		}
		if math.Abs(got.Q-c.q) > 1e-9 || got.Value != c.value {
			t.Errorf("n=%d want=%v: got p%v = %v, want p%v = %v", c.n, c.want, got.Q, got.Value, c.q, c.value)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d want=%v: only %d samples beyond the reported value", c.n, c.want, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
