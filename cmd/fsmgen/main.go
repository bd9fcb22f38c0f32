// Command fsmgen executes a registered abstract model and renders the
// generated state machine in any registered artefact format:
//
//	text      textual state catalogue (Fig. 14)
//	dot       Graphviz state-transition diagram (Fig. 15)
//	xml       XML diagram interchange document (Fig. 15)
//	go        Go source implementation (Fig. 16)
//	doc       markdown documentation
//	efsm      textual EFSM catalogue (§5.3)
//	efsm-dot  Graphviz EFSM diagram
//
// The command is a thin shell over the public asagen SDK: model and
// format names resolve through the client's registries, and all
// generation and rendering is memoised by the client. The -model flag
// selects the scenario (commit, commit-redundant, consensus, termination,
// chord, storage); -r is the model parameter (replication factor, process
// count, fan-out bound, or successor-list length).
//
// With -spec the command registers user-defined models from declarative
// JSON spec files (see the "Authoring your own model" section of
// README.md) before resolving -model, so a scenario never has to live in
// this repository to be generated; the flag repeats for multiple specs,
// and -all includes the registered specs in its cross product.
//
// With -all the command renders the full registry cross product — every
// registered model in every registered format — concurrently into an
// output directory, under content-addressed filenames. As the first
// argument, "serve" starts the versioned HTTP generation service (see
// API.md), whose /v1/models collection accepts the same JSON specs over
// POST, and "check" streams a recorded or live trace through a model's
// generated machine, reporting one conformance verdict per line; it
// exits 0 when the trace conforms, 1 when it violates, 2 when the trace
// is malformed or the invocation is broken.
//
// Examples:
//
//	fsmgen -r 4 -format text
//	fsmgen -model consensus -r 7 -format dot
//	fsmgen -r 7 -format go -pkg commitfsm7 -o machine_gen.go
//	fsmgen -model termination -r 13 -format efsm
//	fsmgen -spec lease.json -format text
//	fsmgen -spec lease.json -all -o artifacts
//	fsmgen -all -o artifacts
//	fsmgen serve -addr :8080
//	fsmgen check -model commit -r 4 -trace round.jsonl
//	tail -f system.log | fsmgen check -format regex -q
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"asagen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsmgen:", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], stdout)
	}

	// Registry listings for flag help come from a plain client; the
	// working client below is configured from the parsed flags.
	helper := asagen.NewClient()
	modelNames := make([]string, 0, len(helper.Models()))
	for _, m := range helper.Models() {
		modelNames = append(modelNames, m.Name)
	}

	fs := flag.NewFlagSet("fsmgen", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "commit", "registered model: "+strings.Join(modelNames, ", "))
		r         = fs.Int("r", 0, "model parameter (0 = model default)")
		format    = fs.String("format", "text", "artefact format: "+strings.Join(helper.Formats(), ", "))
		pkg       = fs.String("pkg", "", "package name for -format go (default: derived from the machine)")
		out       = fs.String("o", "", "output file, or directory for -all (stdout / \"artifacts\" when empty)")
		stats     = fs.Bool("stats", false, "print generation statistics to stderr")
		jobs      = fs.Int("jobs", 0, "concurrent render jobs for -all (0 = GOMAXPROCS)")
		all       = fs.Bool("all", false, "render every registered model in every registered format")
		noMerge   = fs.Bool("no-merge", false, "skip the equivalent-state merging step")
		noComment = fs.Bool("no-comments", false, "omit generated state commentary")
		specFiles []string
	)
	fs.Func("spec", "JSON model spec `file` to register before resolving -model (repeatable)",
		func(path string) error {
			specFiles = append(specFiles, path)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}

	var genOpts []asagen.GenerateOption
	if *noMerge {
		genOpts = append(genOpts, asagen.WithoutMerging())
	}
	if *noComment {
		genOpts = append(genOpts, asagen.WithoutDescriptions())
	}
	// The command's registrations live and die with this invocation: the
	// client clones the registry so -spec never mutates process-global
	// state (which keeps the test binary hermetic, too).
	client := asagen.NewClient(
		asagen.WithJobs(*jobs),
		asagen.WithGenerateOptions(genOpts...),
		asagen.WithIsolatedRegistry(),
	)
	ctx := context.Background()

	var specNames []string
	for _, path := range specFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sp, err := asagen.ParseModelSpec(data)
		if err != nil {
			return fmt.Errorf("-spec %s: %w", path, err)
		}
		if err := client.RegisterModel(sp); err != nil {
			return fmt.Errorf("-spec %s: %w", path, err)
		}
		specNames = append(specNames, sp.Name())
	}
	// A lone spec names the model to render unless -model says otherwise.
	modelFlagSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "model" {
			modelFlagSet = true
		}
	})
	if len(specNames) == 1 && !modelFlagSet {
		*modelName = specNames[0]
	}

	if *all {
		return runAll(ctx, client, *out, stdout)
	}

	if !slices.Contains(client.Formats(), *format) {
		return fmt.Errorf("unknown format %q (known: %v)", *format, client.Formats())
	}

	var res asagen.Result
	if *pkg != "" || *stats {
		// Paths that need the machine itself: a custom Go package clause,
		// or the generation statistics line.
		info, err := client.Model(*modelName)
		if err != nil {
			return err
		}
		machine, err := client.Generate(ctx, *modelName, asagen.WithParam(*r))
		if err != nil {
			return err
		}
		if *stats {
			line := fmt.Sprintf("model=%s %s=%d", machine.ModelName(), info.ParamName, machine.Parameter())
			if f, ok := machine.FaultTolerance(); ok {
				line += fmt.Sprintf(" f=%d", f)
			}
			st := machine.Stats()
			fmt.Fprintf(os.Stderr, "%s initial=%d reachable=%d final=%d transitions=%d fingerprint=%s\n",
				line, st.InitialStates, st.ReachableStates, st.FinalStates, st.Transitions,
				machine.Fingerprint()[:12])
		}
		if client.IsEFSMFormat(*format) {
			// -stats was requested alongside an EFSM format: the machine
			// statistics are printed above, the artefact renders below.
			res, err = client.Render(ctx, asagen.Request{Model: *modelName, Param: *r, Format: *format})
		} else {
			res, err = machine.Render(*format, asagen.WithGoPackage(*pkg))
		}
		if err != nil {
			return err
		}
	} else {
		var err error
		res, err = client.Render(ctx, asagen.Request{Model: *modelName, Param: *r, Format: *format})
		if err != nil {
			return err
		}
	}

	if *out == "" {
		_, err := stdout.Write(res.Data)
		return err
	}
	return os.WriteFile(*out, res.Data, 0o644)
}

// runAll renders the full registry cross product through the client into
// outDir, one content-addressed file per artefact, and prints a manifest
// line per file plus a cache summary.
func runAll(ctx context.Context, client *asagen.Client, outDir string, stdout io.Writer) error {
	if outDir == "" {
		outDir = "artifacts"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	reqs := client.AllRequests()
	failures := 0
	for _, res := range client.RenderAll(ctx, reqs) {
		if res.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "fsmgen: %s/%s r=%d: %v\n",
				res.Model, res.Format, res.Param, res.Err)
			continue
		}
		path := filepath.Join(outDir, res.FileName())
		if err := os.WriteFile(path, res.Data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, len(res.Data))
	}
	st := client.Stats()
	fmt.Fprintf(stdout, "%d artifacts, %d generations, %d render hits, %d render misses\n",
		len(reqs)-failures, st.Generations, st.RenderHits, st.RenderMisses)
	if failures > 0 {
		return fmt.Errorf("%d artifacts failed to render", failures)
	}
	return nil
}
