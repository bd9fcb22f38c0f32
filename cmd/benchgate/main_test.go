package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: asagen
cpu: Example CPU
BenchmarkRenderText-8   	     100	     12345 ns/op	    2048 B/op	      30 allocs/op
BenchmarkRenderAll/cold-8         	       3	   9876543 ns/op
pkg: asagen/internal/core
BenchmarkCacheHitMiss/hit-8       	 1000000	      1234.5 ns/op	       0 B/op	       0 allocs/op
ok  	asagen/internal/core	1.234s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	text, ok := byName["asagen:BenchmarkRenderText"]
	if !ok {
		t.Fatalf("package-qualified name missing: %+v", benches)
	}
	if text.NsPerOp != 12345 || text.AllocsPerOp != 30 {
		t.Errorf("RenderText = %+v", text)
	}
	cold := byName["asagen:BenchmarkRenderAll/cold"]
	if cold.NsPerOp != 9876543 || cold.AllocsPerOp != -1 {
		t.Errorf("RenderAll/cold = %+v (allocs must be -1 when unreported)", cold)
	}
	hit := byName["asagen/internal/core:BenchmarkCacheHitMiss/hit"]
	if hit.NsPerOp != 1234.5 || hit.AllocsPerOp != 0 {
		t.Errorf("CacheHitMiss/hit = %+v", hit)
	}
	// Name-sorted for byte-stable output.
	for i := 1; i < len(benches); i++ {
		if benches[i-1].Name >= benches[i].Name {
			t.Errorf("output not name-sorted: %q before %q", benches[i-1].Name, benches[i].Name)
		}
	}
}

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseMergesRepeatedRunsByMinimum(t *testing.T) {
	repeated := `pkg: asagen
BenchmarkX-8   10   900 ns/op   5 allocs/op
BenchmarkX-8   10   1500 ns/op   9 allocs/op
BenchmarkX-8   10   1100 ns/op   5 allocs/op
`
	benches, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 {
		t.Fatalf("parsed %d records for one repeated benchmark, want 1", len(benches))
	}
	if benches[0].NsPerOp != 900 || benches[0].AllocsPerOp != 5 {
		t.Errorf("merged record = %+v, want the 900 ns/op minimum", benches[0])
	}
}

func TestParseModeWritesJSON(t *testing.T) {
	dir := t.TempDir()
	in := writeJSON(t, dir, "bench.txt", sampleOutput)
	out := filepath.Join(dir, "current.json")
	var sb strings.Builder
	if err := run([]string{"-parse", in, "-o", out}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"asagen:BenchmarkRenderText"`, `"ns_per_op": 12345`, `"allocs_per_op": -1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s:\n%s", want, data)
		}
	}
}

func TestParseModeRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	in := writeJSON(t, dir, "bench.txt", "no benchmarks here\n")
	var sb strings.Builder
	if err := run([]string{"-parse", in, "-o", filepath.Join(dir, "out.json")}, &sb); err == nil {
		t.Fatal("empty benchmark output accepted")
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":1},
		  {"name":"a:BenchmarkRetired","ns_per_op":5,"allocs_per_op":0}]`)
	cur := writeJSON(t, dir, "cur.json",
		`[{"name":"a:BenchmarkX","ns_per_op":120000,"allocs_per_op":1},
		  {"name":"a:BenchmarkNew","ns_per_op":7,"allocs_per_op":0}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur, "-max-regression", "25"}, &sb); err != nil {
		t.Fatalf("+20%% failed a 25%% gate: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"ok", "new", "retired", "1 benchmarks"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCompareReportsTimeWithoutGating: the baseline's times come from other
// machines, so a slower ns/op is printed with its delta and passes.
func TestCompareReportsTimeWithoutGating(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":1},
		  {"name":"a:BenchmarkTiny","ns_per_op":60,"allocs_per_op":0}]`)
	cur := writeJSON(t, dir, "cur.json",
		`[{"name":"a:BenchmarkX","ns_per_op":130000,"allocs_per_op":1},
		  {"name":"a:BenchmarkTiny","ns_per_op":180,"allocs_per_op":0}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur, "-max-regression", "25"}, &sb); err != nil {
		t.Fatalf("a time regression failed the gate: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"100000 -> 130000 ns/op (+30.0%)", "60 -> 180 ns/op (+200.0%)", "2 benchmarks"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestCompareToleratesImprovementAndIgnoresNewBenchmarks(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":1}]`)
	cur := writeJSON(t, dir, "cur.json",
		`[{"name":"a:BenchmarkX","ns_per_op":20000,"allocs_per_op":1},
		  {"name":"a:BenchmarkY","ns_per_op":999999,"allocs_per_op":1}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &sb); err != nil {
		t.Fatalf("improvement + new benchmark failed the gate: %v", err)
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":1000}]`)
	cur := writeJSON(t, dir, "cur.json", `[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":1400}]`)
	var sb strings.Builder
	err := run([]string{"-baseline", base, "-current", cur, "-max-regression", "25"}, &sb)
	if err == nil {
		t.Fatalf("+40%% allocs passed a 25%% gate:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "+40.0%") {
		t.Errorf("alloc regression error %q does not name allocs/op and delta", err)
	}
}

func TestCompareAllocNoiseFloorAndUnreported(t *testing.T) {
	dir := t.TempDir()
	// 4 -> 8 allocs doubles but sits under the -min-allocs floor; an
	// unreported side (-1) must never gate; a real alloc regression on a
	// reporting pair still fails.
	base := writeJSON(t, dir, "base.json",
		`[{"name":"a:BenchmarkSmall","ns_per_op":50000,"allocs_per_op":4},
		  {"name":"a:BenchmarkSilent","ns_per_op":50000,"allocs_per_op":-1},
		  {"name":"a:BenchmarkBig","ns_per_op":50000,"allocs_per_op":500}]`)
	okCur := writeJSON(t, dir, "ok.json",
		`[{"name":"a:BenchmarkSmall","ns_per_op":50000,"allocs_per_op":8},
		  {"name":"a:BenchmarkSilent","ns_per_op":50000,"allocs_per_op":9999},
		  {"name":"a:BenchmarkBig","ns_per_op":50000,"allocs_per_op":550}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", okCur}, &sb); err != nil {
		t.Fatalf("sub-floor and unreported allocs failed the gate: %v\n%s", err, sb.String())
	}
	badCur := writeJSON(t, dir, "bad.json", `[{"name":"a:BenchmarkBig","ns_per_op":50000,"allocs_per_op":700}]`)
	sb.Reset()
	if err := run([]string{"-baseline", base, "-current", badCur}, &sb); err == nil {
		t.Fatal("above-floor alloc regression passed the gate")
	}
}

func TestCompareReportsAllocDeltas(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[{"name":"a:BenchmarkX","ns_per_op":100000,"allocs_per_op":200}]`)
	cur := writeJSON(t, dir, "cur.json", `[{"name":"a:BenchmarkX","ns_per_op":101000,"allocs_per_op":100}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "200 -> 100 allocs/op (-50.0%)") {
		t.Errorf("report missing the alloc delta:\n%s", sb.String())
	}
}

// TestParseMergePreservesFieldsAcrossRuns: the field-wise merge keeps
// each field's minimum independently — a run that omits allocations or
// percentile metrics never erases the values another run reported, and
// the fastest ns/op run does not drag its own (possibly worse) alloc
// count along.
func TestParseMergePreservesFieldsAcrossRuns(t *testing.T) {
	repeated := `pkg: asagen
BenchmarkX-8   10   900 ns/op
BenchmarkX-8   10   1500 ns/op   7 allocs/op
BenchmarkX-8   10   1100 ns/op   9 allocs/op
BenchmarkY-8   10   50000 ns/op   40000 p50-ns   90000 p99-ns   12 allocs/op
BenchmarkY-8   10   48000 ns/op   42000 p50-ns   80000 p99-ns   15 allocs/op
BenchmarkY-8   10   52000 ns/op
`
	benches, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	x := byName["asagen:BenchmarkX"]
	if x.NsPerOp != 900 || x.AllocsPerOp != 7 {
		t.Errorf("X = %+v, want ns 900 with the min reported allocs 7", x)
	}
	y := byName["asagen:BenchmarkY"]
	if y.NsPerOp != 48000 || y.AllocsPerOp != 12 || y.P50Ns != 40000 || y.P99Ns != 80000 {
		t.Errorf("Y = %+v, want field-wise minima 48000/12/40000/80000", y)
	}
	if x.P50Ns != 0 || x.P99Ns != 0 {
		t.Errorf("X percentiles = %v/%v, want 0 (never reported)", x.P50Ns, x.P99Ns)
	}
}

// TestCompareReportsPercentiles: p50/p99 deltas are printed beside ns/op
// and, like it, never fail the gate; entries without percentiles on either
// side print none.
func TestCompareReportsPercentiles(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`[{"name":"a:BenchmarkServe/warm","ns_per_op":90000,"allocs_per_op":90,"p50_ns":60000,"p99_ns":100000},
		  {"name":"a:BenchmarkPlain","ns_per_op":50000,"allocs_per_op":-1}]`)

	slower := writeJSON(t, dir, "slower.json",
		`[{"name":"a:BenchmarkServe/warm","ns_per_op":91000,"allocs_per_op":90,"p50_ns":61000,"p99_ns":140000},
		  {"name":"a:BenchmarkPlain","ns_per_op":50000,"allocs_per_op":-1}]`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", slower}, &sb); err != nil {
		t.Fatalf("a p99 regression failed the gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "100000 -> 140000 p99_ns (+40.0%)") {
		t.Errorf("percentile deltas not reported:\n%s", sb.String())
	}

	// A current run that lost its percentiles (e.g. ran without the serve
	// benchmarks' metrics) reports none.
	bare := writeJSON(t, dir, "bare.json",
		`[{"name":"a:BenchmarkServe/warm","ns_per_op":91000,"allocs_per_op":90}]`)
	sb.Reset()
	if err := run([]string{"-baseline", base, "-current", bare}, &sb); err != nil {
		t.Fatalf("missing percentiles failed the gate: %v\n%s", err, sb.String())
	}
	if strings.Contains(sb.String(), "p99_ns") {
		t.Errorf("a percentile delta reported for a run without percentiles:\n%s", sb.String())
	}
}
