package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of an ascending slice by the rule
// Python's statistics.quantiles uses by default (position p·(n+1),
// linear interpolation, clamped to the ends), so the spreads this
// harness prints are the ones the driver computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// quantileOf sorts a copy of xs and returns its p-quantile.
func quantileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// lowerQuartile is the statistic every timing is taken at: interference
// on a shared box only ever slows a repeat down, so the 25th percentile
// sits on the undisturbed repeats where a mean or median still moves.
func lowerQuartile(xs []float64) float64 { return quantileOf(xs, 0.25) }

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// lap is one measured pass over a workload's op list.
type lap struct {
	wallNS   int64
	cpuTicks int64   // server utime+stime over the lap
	latNS    []int64 // per op position
	rssKB    int64   // server VmHWM at lap end (fresh-server workloads)
}

// lapSummary is what the laps of one workload reduce to.
type lapSummary struct {
	opsPerS      float64
	latGeomeanUS float64
	cpuUSPerOp   float64
	p50US, p99US float64
	lapSpread    float64
	samples      int
}

// summarize reduces measured laps. keyOf maps an op position to its key
// (laps are identical, so positions line up across laps).
//
// CPU is averaged over the quiet half of the laps (wall time at or below
// the median): /proc/<pid>/stat counts in 10 ms ticks, so one lap's delta
// is good to a few percent only; the mean over twenty quiet laps is good
// to a fraction of one, and the disturbed laps stay out of it.
func summarize(laps []lap, keyOf []int32, nKeys int) lapSummary {
	ops := float64(len(keyOf))
	walls := make([]float64, len(laps))
	for i, l := range laps {
		walls[i] = float64(l.wallNS)
	}
	var s lapSummary
	s.opsPerS = ops / (lowerQuartile(walls) / 1e9)
	s.lapSpread = spread(walls)

	medianWall := median(walls)
	var ticks, quiet float64
	for _, l := range laps {
		if float64(l.wallNS) <= medianWall {
			ticks += float64(l.cpuTicks)
			quiet++
		}
	}
	s.cpuUSPerOp = ticks / quiet / tickHz * 1e6 / ops

	perKey := make([][]float64, nKeys)
	all := make([]float64, 0, len(laps)*len(keyOf))
	for _, l := range laps {
		for pos, ns := range l.latNS {
			k := keyOf[pos]
			perKey[k] = append(perKey[k], float64(ns))
			all = append(all, float64(ns))
		}
	}
	keyLat := make([]float64, 0, nKeys)
	for _, samples := range perKey {
		if len(samples) > 0 {
			keyLat = append(keyLat, lowerQuartile(samples)/1e3)
		}
	}
	s.latGeomeanUS = geomean(keyLat)
	sort.Float64s(all)
	s.p50US = quantile(all, 0.50) / 1e3
	s.p99US = quantile(all, 0.99) / 1e3
	s.samples = len(all)
	return s
}
