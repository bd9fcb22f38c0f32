package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, since that is what the driver computes spreads with.
func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs            []float64
		q1, q2, q3    float64
		wantSpreadVal float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1.0},
		{[]float64{50, 10, 40, 20, 30}, 15, 30, 45, 1.0},
		{[]float64{7, 7, 7, 7}, 7, 7, 7, 0},
		{[]float64{100, 102, 98}, 98, 100, 102, 0.04},
	}
	for _, c := range cases {
		if got := lowerQuartile(c.xs); !near(got, c.q1) {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.xs, got, c.q1)
		}
		if got := median(c.xs); !near(got, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.q2)
		}
		if got := quantileOf(c.xs, 0.75); !near(got, c.q3) {
			t.Errorf("upper quartile(%v) = %v, want %v", c.xs, got, c.q3)
		}
		if got := spread(c.xs); !near(got, c.wantSpreadVal) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.wantSpreadVal)
		}
	}
	if got := lowerQuartile([]float64{42}); got != 42 {
		t.Errorf("lowerQuartile of one value = %v, want that value", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{4, 9}); !near(got, 6) {
		t.Errorf("geomean(4, 9) = %v, want 6", got)
	}
	// One op class getting twice as fast moves the geomean by 2^(1/n)
	// whatever that class's absolute latency is.
	slow, fast := geomean([]float64{100, 5000}), geomean([]float64{50, 5000})
	if !near(slow/fast, math.Sqrt2) {
		t.Errorf("halving one of two keys moved the geomean by %v, want √2", slow/fast)
	}
}

func TestSummarizeLaps(t *testing.T) {
	// Two keys, three op positions (key 0 twice per lap), five laps of
	// which the last two are disturbed: slower wall, more CPU.
	keyOf := []int32{0, 1, 0}
	mk := func(wallMS, ticks int64, lat ...int64) lap {
		for i := range lat {
			lat[i] *= 1000 // µs → ns
		}
		return lap{wallNS: wallMS * 1e6, cpuTicks: ticks, latNS: lat}
	}
	laps := []lap{
		mk(300, 20, 100, 400, 100),
		mk(300, 20, 100, 400, 100),
		mk(300, 22, 100, 400, 100),
		mk(600, 40, 300, 900, 300),
		mk(900, 60, 500, 900, 500),
	}
	s := summarize(laps, keyOf, 2)
	// Lower-quartile wall is 300 ms: 3 ops in 0.3 s.
	if !near(s.opsPerS, 10) {
		t.Errorf("opsPerS = %v, want 10", s.opsPerS)
	}
	// Quiet half = the three 300 ms laps: (20+20+22)/3 ticks of 10 ms
	// over 3 ops.
	if want := (62.0 / 3) * 10000 / 3; !near(s.cpuUSPerOp, want) {
		t.Errorf("cpuUSPerOp = %v, want %v", s.cpuUSPerOp, want)
	}
	// Per key lower quartile: key 0 → 100 µs, key 1 → 400 µs.
	if !near(s.latGeomeanUS, 200) {
		t.Errorf("latGeomeanUS = %v, want 200", s.latGeomeanUS)
	}
	if s.samples != 15 {
		t.Errorf("samples = %d, want 15", s.samples)
	}
	if !near(s.lapSpread, 1.5) { // quartiles 300 and 750 around the 300 median
		t.Errorf("lapSpread = %v, want 1.5", s.lapSpread)
	}
}
