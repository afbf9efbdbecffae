package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the epsilon absorbs float error in p·n
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel is the highest ladder percentile with at least ten samples
// beyond it among n, so that the tail is set by ten samples, not one. With
// fewer than twenty samples no ladder level qualifies and the median is
// used.
func tailLevel(n int) float64 {
	level := tailLadder[0]
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			level = p
		}
	}
	return level
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// median is the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func levelName(p float64) string { return "p" + fmt.Sprint(p) }

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// union merges intervals into a sorted list of disjoint ones.
func union(ivs []interval) []interval {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.end - iv.start
	}
	return t
}

// selfTime is the time the parents cover that none of the children do:
// the length of the parents' union minus its overlap with the children's
// union. Children that run concurrently are counted once.
func selfTime(parents, children []interval) int64 {
	p, c := union(parents), union(children)
	var overlap int64
	j := 0
	for _, iv := range p {
		for j < len(c) && c[j].end <= iv.start {
			j++
		}
		for k := j; k < len(c) && c[k].start < iv.end; k++ {
			lo, hi := max(iv.start, c[k].start), min(iv.end, c[k].end)
			if hi > lo {
				overlap += hi - lo
			}
		}
	}
	return length(p) - overlap
}
