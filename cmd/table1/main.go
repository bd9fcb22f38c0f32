// Command table1 regenerates the paper's Table 1: for each published
// (f, r) pair it executes the commit abstract model through the public
// asagen SDK, reports the initial and final state counts — which must
// match the paper exactly — and measures the wall-clock generation time
// on this machine (the paper's times were taken on a 2.33 GHz Core 2
// Duo; only the growth shape is comparable).
//
// With -model set to another registry entry the command prints the
// analogous sweep table for that scenario (no published numbers exist, so
// no comparison columns are shown).
//
//	table1 [-paper]
//	table1 -model commit-redundant
//	table1 -model consensus -params 3,5,7,9
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"asagen"
)

// paperRows are the published Table 1 rows: fault tolerance, replication
// factor, initial and final state counts, and the paper's generation time.
var paperRows = []struct {
	f, r          int
	initialStates int
	finalStates   int
	paperSeconds  float64
}{
	{1, 4, 512, 33, 0.10},
	{2, 7, 1568, 85, 0.12},
	{4, 13, 5408, 261, 0.38},
	{8, 25, 20000, 901, 2.2},
	{15, 46, 67712, 2945, 19.1},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	client := asagen.NewClient()
	modelNames := make([]string, 0, len(client.Models()))
	for _, m := range client.Models() {
		modelNames = append(modelNames, m.Name)
	}

	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	modelName := fs.String("model", "commit", "registered model: "+strings.Join(modelNames, ", "))
	showPaper := fs.Bool("paper", true, "include the paper's published numbers for comparison (commit only)")
	params := fs.String("params", "", "comma-separated parameter values (default: the model's sweep)")
	repeats := fs.Int("repeats", 3, "measurement repeats per row (minimum taken)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	info, err := client.Model(*modelName)
	if err != nil {
		return err
	}

	// WithoutCache keeps every repeat an honest from-scratch generation —
	// the measurement must not be answered from the client's memo.
	genOpts := []asagen.GenerateOption{asagen.WithoutDescriptions(), asagen.WithoutCache()}

	commitFamily := info.Vocabulary == asagen.VocabularyCommit
	if !commitFamily {
		*showPaper = false
	}

	sweep := info.SweepParams
	if *params != "" {
		sweep, err = parseParams(*params)
		if err != nil {
			return err
		}
		// Custom parameter values have no published counterpart rows.
		*showPaper = false
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	header := "f\tr\tinitial states\tfinal states\tgeneration time (s)"
	if !commitFamily {
		header = info.ParamName + "\tinitial states\tfinal states\tgeneration time (s)"
	}
	if *showPaper {
		header += "\tpaper initial\tpaper final\tpaper time (s)"
	}
	fmt.Fprintln(w, header)

	paperByR := make(map[int]int, len(paperRows))
	for i, row := range paperRows {
		paperByR[row.r] = i
	}

	ctx := context.Background()
	mismatches := 0
	for _, param := range sweep {
		var machine *asagen.Machine
		best := time.Duration(0)
		for rep := 0; rep < max(1, *repeats); rep++ {
			opts := append([]asagen.GenerateOption{asagen.WithParam(param)}, genOpts...)
			start := time.Now()
			machine, err = client.Generate(ctx, *modelName, opts...)
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if rep == 0 || elapsed < best {
				best = elapsed
			}
		}
		st := machine.Stats()
		var line string
		if commitFamily {
			f := (param - 1) / 3
			if ft, ok := machine.FaultTolerance(); ok {
				f = ft
			}
			line = fmt.Sprintf("%d\t%d\t%d\t%d\t%.4f",
				f, param, st.InitialStates, st.FinalStates, best.Seconds())
		} else {
			line = fmt.Sprintf("%d\t%d\t%d\t%.4f",
				param, st.InitialStates, st.FinalStates, best.Seconds())
		}
		if i, ok := paperByR[param]; *showPaper && ok {
			row := paperRows[i]
			line += fmt.Sprintf("\t%d\t%d\t%.2f", row.initialStates, row.finalStates, row.paperSeconds)
			if st.InitialStates != row.initialStates ||
				st.FinalStates != row.finalStates {
				line += "\tMISMATCH"
				mismatches++
			}
		}
		fmt.Fprintln(w, line)
	}
	if mismatches > 0 {
		w.Flush()
		return fmt.Errorf("%d rows deviate from the published counts", mismatches)
	}
	return nil
}

func parseParams(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -params entry %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
