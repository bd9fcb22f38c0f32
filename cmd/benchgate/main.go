// Command benchgate converts `go test -bench` output into a stable JSON
// benchmark inventory and gates CI on allocs/op regressions against a
// checked-in baseline.
//
// Parse mode reads the plain benchmark output (package headers included)
// and writes one JSON record per benchmark, name-sorted so the file is
// byte-stable for equal inputs. Besides ns/op and allocs/op, B/op
// (-benchmem) is captured as bytes_per_op, and the serve benchmarks'
// custom p50-ns/p99-ns metrics (b.ReportMetric) as p50_ns/p99_ns, so
// memory and tail latency are inventoried like throughput.
// Repeated results for one benchmark (from -count=N) are
// merged field-wise by taking each field's minimum — the noise-robust
// estimator, since noise only ever adds time — and a field reported by
// only some runs keeps its reported value rather than being discarded:
//
//	go test -bench=. -benchtime=3x -count=5 -run='^$' ./... | tee bench.txt
//	benchgate -parse bench.txt -o BENCH_current.json
//
// Compare mode fails (exit 1) when any benchmark present in both files
// regressed in allocs/op by more than the threshold percentage:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_current.json -max-regression 25
//
// The time columns — ns/op, p50_ns, p99_ns — are printed with their
// deltas and never fail the gate: the baseline's times were recorded on
// other machines than the one comparing against them, and at
// -benchtime=3x the gate failed rows no change had touched. The
// end-to-end benchmark (bench/) is where time is compared, parent against
// change on one machine. B/op is printed the same way, beside the
// allocs/op that stays the gate. Benchmarks present on only one side are
// reported informationally, so adding or retiring a benchmark does not
// require touching the baseline in the same change. Allocation counts are
// gated only when both sides report them (-benchmem or b.ReportAllocs) and
// the baseline is at least -min-allocs: allocs/op is deterministic, but at
// single-digit counts one incidental allocation is a large percentage
// without being a meaningful regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the package-qualified benchmark name with the GOMAXPROCS
	// suffix stripped, e.g. "asagen/internal/core:BenchmarkGenerate/r=4".
	Name string `json:"name"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the reported allocs/op; -1 when the benchmark does
	// not report allocations.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is the reported B/op; 0 when not reported, or when the
	// benchmark allocates nothing.
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// P50Ns and P99Ns are the serve benchmarks' custom latency-percentile
	// metrics (b.ReportMetric "p50-ns"/"p99-ns"); 0 when not reported.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

var (
	// benchLine matches one result line:
	//   BenchmarkName-8   3   123456 ns/op   456 B/op   7 allocs/op
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op(.*)$`)
	pkgLine   = regexp.MustCompile(`^pkg:\s+(\S+)$`)
	allocsRe  = regexp.MustCompile(`([0-9]+) allocs/op`)
	bytesRe   = regexp.MustCompile(`([0-9]+) B/op`)
	p50Re     = regexp.MustCompile(`([0-9.]+(?:e[+-]?\d+)?) p50-ns`)
	p99Re     = regexp.MustCompile(`([0-9.]+(?:e[+-]?\d+)?) p99-ns`)
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		parse     = fs.String("parse", "", "benchmark output file to parse into JSON")
		out       = fs.String("o", "BENCH_current.json", "JSON output path for -parse")
		baseline  = fs.String("baseline", "", "baseline JSON for -compare mode")
		current   = fs.String("current", "", "current JSON for -compare mode")
		threshold = fs.Float64("max-regression", 25, "maximum tolerated allocs/op regression, percent")
		minAllocs = fs.Int64("min-allocs", 20, "allocation floor: baselines under this allocs/op never gate on allocations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *parse != "":
		return runParse(*parse, *out)
	case *baseline != "" && *current != "":
		return runCompare(*baseline, *current, *threshold, *minAllocs, stdout)
	default:
		return fmt.Errorf("nothing to do: pass -parse FILE, or -baseline FILE -current FILE")
	}
}

func runParse(inPath, outPath string) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	benches, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("%s contains no benchmark results", inPath)
	}
	data, err := json.MarshalIndent(benches, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// parseBench extracts the benchmark results from `go test -bench` output,
// qualifying names with the pkg: header lines so equally named benchmarks
// in different packages stay distinct. Repeated results for one name are
// merged field by field, each keeping its minimum over the runs; a field
// absent from some runs (unreported allocs, no percentile metrics) never
// erases the value another run reported.
func parseBench(r io.Reader) ([]Benchmark, error) {
	byName := map[string]Benchmark{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		allocs := int64(-1)
		if am := allocsRe.FindStringSubmatch(m[3]); am != nil {
			if allocs, err = strconv.ParseInt(am[1], 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
		}
		bytes := int64(0)
		if bm := bytesRe.FindStringSubmatch(m[3]); bm != nil {
			if bytes, err = strconv.ParseInt(bm[1], 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %v", line, err)
			}
		}
		metric := func(re *regexp.Regexp) (float64, error) {
			pm := re.FindStringSubmatch(m[3])
			if pm == nil {
				return 0, nil
			}
			return strconv.ParseFloat(pm[1], 64)
		}
		p50, err := metric(p50Re)
		if err != nil {
			return nil, fmt.Errorf("bad p50-ns in %q: %v", line, err)
		}
		p99, err := metric(p99Re)
		if err != nil {
			return nil, fmt.Errorf("bad p99-ns in %q: %v", line, err)
		}
		name := m[1]
		if pkg != "" {
			name = pkg + ":" + name
		}
		prev, ok := byName[name]
		if !ok {
			byName[name] = Benchmark{Name: name, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes, P50Ns: p50, P99Ns: p99}
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, ns)
		prev.AllocsPerOp = minReported(prev.AllocsPerOp, allocs)
		prev.BytesPerOp = minMetric(prev.BytesPerOp, bytes)
		prev.P50Ns = minMetric(prev.P50Ns, p50)
		prev.P99Ns = minMetric(prev.P99Ns, p99)
		byName[name] = prev
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	benches := make([]Benchmark, 0, len(byName))
	for _, b := range byName {
		benches = append(benches, b)
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	return benches, nil
}

// minReported merges two allocs/op values where -1 means "not reported":
// an unreported side never erases a reported count.
func minReported(a, b int64) int64 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	return min(a, b)
}

// minMetric merges two optional metric values where 0 means "not
// reported".
func minMetric[T int64 | float64](a, b T) T {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return min(a, b)
}

func loadJSON(path string) (map[string]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benches []Benchmark
	if err := json.Unmarshal(data, &benches); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	return byName, nil
}

func runCompare(basePath, curPath string, threshold float64, minAllocs int64, stdout io.Writer) error {
	base, err := loadJSON(basePath)
	if err != nil {
		return err
	}
	cur, err := loadJSON(curPath)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("%s is empty", curPath)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	compared := 0
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(stdout, "new       %s (%.0f ns/op, no baseline)\n", name, cur[name].NsPerOp)
			continue
		}
		c := cur[name]
		delta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		compared++
		status := "ok"
		allocNote := ""
		if b.AllocsPerOp >= 0 && c.AllocsPerOp >= 0 {
			allocDelta := 100 * float64(c.AllocsPerOp-b.AllocsPerOp) / float64(max(b.AllocsPerOp, 1))
			allocNote = fmt.Sprintf(", %d -> %d allocs/op (%+.1f%%)", b.AllocsPerOp, c.AllocsPerOp, allocDelta)
			if b.AllocsPerOp >= minAllocs && allocDelta > threshold {
				status = "REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%%, limit +%.0f%%)", name, b.AllocsPerOp, c.AllocsPerOp, allocDelta, threshold))
			}
		}
		metricNote := ""
		for _, metric := range []struct {
			label      string
			base, curr float64
		}{
			{"B/op", float64(b.BytesPerOp), float64(c.BytesPerOp)},
			{"p50_ns", b.P50Ns, c.P50Ns},
			{"p99_ns", b.P99Ns, c.P99Ns},
		} {
			if metric.base == 0 || metric.curr == 0 {
				continue
			}
			metricDelta := 100 * (metric.curr - metric.base) / metric.base
			metricNote += fmt.Sprintf(", %.0f -> %.0f %s (%+.1f%%)", metric.base, metric.curr, metric.label, metricDelta)
		}
		fmt.Fprintf(stdout, "%-9s %s %.0f -> %.0f ns/op (%+.1f%%)%s%s\n", status, name, b.NsPerOp, c.NsPerOp, delta, allocNote, metricNote)
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(stdout, "retired   %s (in baseline only)\n", name)
		}
	}
	fmt.Fprintf(stdout, "compared %d benchmarks against %s, %d regression(s)\n", compared, basePath, len(regressions))
	if len(regressions) > 0 {
		return fmt.Errorf("regression beyond %.0f%%:\n  %s", threshold, strings.Join(regressions, "\n  "))
	}
	return nil
}
