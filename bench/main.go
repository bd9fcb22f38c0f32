// Command bench is the repository's end-to-end and per-layer benchmark:
// it builds cmd/fsmgen, drives the real `fsmgen serve` binary over
// loopback HTTP in closed-loop laps, verifies every response, and — in
// its traced pass — times calls into each layer's public functions
// in-process. README.md in this directory explains how a number is taken
// and what each metric is for.
//
//	sh bench/run.sh -seed 1                      # all four workloads, laps interleaved
//	sh bench/run.sh -workload warm-read -seed 1  # one workload
//	sh bench/run.sh -workload warm-read -trace 1 # traced pass: per-layer metrics, spans
//	sh bench/run.sh -aa 10                       # self-check: ten runs, two alternating sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", "", "repository root (default: found upwards from the working directory)")
		wl       = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		aa       = flag.Int("aa", 0, "self-check: this many complete runs, split into two alternating sets")
		goldenUp = flag.Bool("update-golden", false, "re-render the sweep in-process and rewrite golden/digests.json")
	)
	refAddr := flag.String("reference-serve", "", "internal: run as the cross-process reference server on this address")
	flag.Parse()
	if *refAddr != "" {
		referenceServe(*refAddr)
	}
	if flag.NArg() > 0 {
		die(2, "unexpected argument %q", flag.Arg(0))
	}
	if *root == "" {
		*root = findRoot()
	}
	repoRoot = *root
	if *goldenUp {
		if err := writeGolden(repoRoot); err != nil {
			die(1, "update golden: %v", err)
		}
		return
	}
	names := allWorkloads
	if *wl != "all" {
		names = strings.Split(*wl, ",")
	}

	// Every exit path kills the servers: die() on errors, this handler on
	// signals, the timer on a hang.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		die(130, "caught %v", s)
	}()

	binary, err := buildServer(repoRoot)
	if err != nil {
		die(1, "%v", err)
	}
	if err := verifyTable1(); err != nil {
		die(1, "%v", err)
	}

	// The contract allows a run 180 s. Set-ups and reference samples take
	// about 5 s per workload when the box is quiet; a run that needs five
	// times that and a minute more is hung.
	runs := max(*aa, 1)
	plan := time.Duration(float64(runs*len(names))*(*seconds+25)+60) * time.Second
	time.AfterFunc(plan, func() { die(3, "global deadline of %v passed", plan) })

	code := 0
	switch {
	case *aa > 0:
		code = selfCheck(binary, names, *seed, *seconds, *aa)
	case *traced != 0:
		code = tracedRun(binary, names, *seed, *seconds)
	default:
		results, err := runLive(binary, names, *seed, *seconds, setups)
		if err != nil {
			die(1, "%v", err)
		}
		code = report(results, endToEnd, nil)
	}
	killAll()
	removeTempDirs()
	os.Exit(code)
}

var repoRoot string

// findRoot walks up from the working directory to the asagen module.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		die(1, "%v", err)
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module asagen\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			die(1, "no asagen module above the working directory; pass -root")
		}
		dir = parent
	}
}

// buildServer compiles cmd/fsmgen into the checkout's .bench_build. The
// build is not timed: a user of the server does not pay it.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "fsmgen")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/fsmgen")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/fsmgen: %v\n%s", err, msg)
	}
	return out, nil
}

var tempDirs struct {
	sync.Mutex
	dirs []string
}

// tempDir makes a scratch directory inside the checkout.
func tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(repoRoot, ".bench_build"), pattern)
	if err != nil {
		return "", err
	}
	tempDirs.Lock()
	tempDirs.dirs = append(tempDirs.dirs, dir)
	tempDirs.Unlock()
	return dir, nil
}

func removeTempDirs() {
	tempDirs.Lock()
	defer tempDirs.Unlock()
	for _, dir := range tempDirs.dirs {
		os.RemoveAll(dir)
	}
	tempDirs.dirs = nil
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of every result by name and unit, the
// failures, and the contract line carrying the metrics in `keep` (plus
// `extra`, the traced pass's own). With several workloads the contract
// line's names are prefixed "<workload>/".
func report(results []result, keep []string, extra map[string]float64) int {
	line := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
	for _, res := range results {
		fmt.Printf("== %s: %d laps, %d ops attempted, %d failed\n", res.workload, res.laps, res.attempted, res.failed)
		names := append(append([]string{}, endToEnd...), "fail_ratio")
		names = append(names, liveLayer...)
		for _, name := range names {
			fmt.Printf("%-28s %16.4f %s\n", name, res.metrics[name], units[name])
		}
		for _, f := range res.failures {
			fmt.Printf("FAILED %s\n", f)
		}
		line.Attempted += res.attempted
		line.Failed += res.failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.workload + "/"
		}
		for _, name := range keep {
			line.Metrics[prefix+name] = contractMetric{res.metrics[name], units[name]}
		}
	}
	if len(extra) > 0 {
		fmt.Println("== layers")
		names := make([]string, 0, len(extra))
		for name := range extra {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-28s %16.4f %s\n", name, extra[name], units[name])
			line.Metrics[name] = contractMetric{extra[name], units[name]}
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		die(1, "%v", err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}
