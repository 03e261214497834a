package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency report may use, lowest first.
var tailCandidates = []float64{0.50, 0.90, 0.99, 0.999}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted values: the smallest rank r with r/n >= p.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n sorted values lie strictly after percentile p's
// nearest rank.
func beyond(p float64, n int) int { return n - rankOf(p, n) }

// highestPercentile returns the highest candidate percentile that still has
// at least minBeyond samples beyond it among n, and false when even the
// median has fewer.
func highestPercentile(n, minBeyond int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailCandidates {
		if n > 0 && beyond(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// latencies collects per-job latencies in milliseconds. A job that failed
// (or was shed, or whose output did not check) is recorded as a miss, which
// ranks beyond every completed job.
type latencies struct {
	ms     []float64
	misses int
}

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }
func (l *latencies) miss()          { l.misses++ }
func (l *latencies) count() int     { return len(l.ms) + l.misses }

// at returns percentile p over completed jobs and misses together. When the
// percentile falls on a miss, ceil is returned: a latency no completed job
// exceeded (the caller passes the phase's wall time).
func (l *latencies) at(p, ceil float64) float64 {
	n := l.count()
	if n == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), l.ms...)
	sort.Float64s(xs)
	r := rankOf(p, n)
	if r > len(xs) {
		return ceil
	}
	return xs[r-1]
}
