package main

import (
	"math"

	"repro/internal/fastrand"
)

// zipfAssign pre-draws which of distinct specs each of n jobs submits: spec
// rank k (0-based) appears round(n·p_k) times for the zipf(s) pmf p_k ∝
// (k+1)^-s, rounded by largest remainder so the counts sum to n, and the n
// slots are shuffled with the workload seed. The multiplicities, and so the
// number of distinct specs and of repeat submissions, are the same for
// every seed; the seed only orders them. Callers take jobs from the list in
// index order, so the assignment never depends on how they interleave.
func zipfAssign(seed int64, n, distinct int, s float64) []int {
	weights := make([]float64, distinct)
	var h float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		h += weights[k]
	}
	counts := make([]int, distinct)
	rems := make([]float64, distinct)
	left := n
	for k, w := range weights {
		e := float64(n) * w / h
		counts[k] = int(e)
		rems[k] = e - float64(counts[k])
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rems {
			if rems[k] > rems[best] {
				best = k
			}
		}
		counts[best]++
		rems[best] = -1
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	rng := fastrand.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
