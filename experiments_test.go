package asagen_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asagen"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated tables")

// TestExperimentTables checks EXPERIMENTS.md's deterministic tables against
// what they record, so the document cannot drift from the code: Table 1
// against the commit members the generator builds, E17 against the
// checked-in fleetsim goldens. Regenerate with:
//
//	go test . -run TestExperimentTables -update
func TestExperimentTables(t *testing.T) {
	const path = "EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, table := range []string{table1Markdown(t), fleetMarkdown(t)} {
		doc, err = replaceTable(doc, table)
		if err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if doc != string(data) {
		t.Error("EXPERIMENTS.md drifted from the generator or the fleetsim goldens; regenerate with: go test . -run TestExperimentTables -update")
	}
}

// replaceTable replaces the markdown table in doc whose header row is the
// first line of table with table.
func replaceTable(doc, table string) (string, error) {
	header, _, _ := strings.Cut(table, "\n")
	start := strings.Index(doc, "\n"+header+"\n")
	if start < 0 {
		return "", fmt.Errorf("EXPERIMENTS.md has no table headed %s", header)
	}
	start++
	end := start
	for end < len(doc) && doc[end] == '|' {
		end += strings.IndexByte(doc[end:], '\n') + 1
	}
	return doc[:start] + table + doc[end:], nil
}

// table1Markdown generates the commit members of the paper's Table 1 and
// sets their counts beside the published ones.
func table1Markdown(t *testing.T) string {
	paper := []struct{ r, initial, final int }{
		{4, 512, 33}, {7, 1568, 85}, {13, 5408, 261}, {25, 20000, 901}, {46, 67712, 2945},
	}
	var b strings.Builder
	b.WriteString("| f | r | initial states | final states | paper initial | paper final |\n|---|---|---|---|---|---|\n")
	client := asagen.NewClient()
	for _, row := range paper {
		m, err := client.Generate(context.Background(), "commit", asagen.WithParam(row.r), asagen.WithoutDescriptions())
		if err != nil {
			t.Fatal(err)
		}
		f, _ := m.FaultTolerance()
		st := m.Stats()
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d |\n", f, row.r, st.InitialStates, st.FinalStates, row.initial, row.final)
	}
	return b.String()
}

// fleetMarkdown summarises the checked-in fleetsim goldens, one row per
// scenario in file-name order.
func fleetMarkdown(t *testing.T) string {
	files, err := filepath.Glob(filepath.Join("examples", "fleetsim", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fleetsim goldens: %v", err)
	}
	var b strings.Builder
	b.WriteString("| scenario | model | instances | events | virt. throughput/s | violations (exp/unexp) | completion p50 |\n|---|---|---|---|---|---|---|\n")
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var r struct {
			Scenario struct {
				Name  string          `json:"name"`
				Model string          `json:"model"`
				Spec  json.RawMessage `json:"spec"`
			} `json:"scenario"`
			Fleet struct {
				Instances int `json:"instances"`
			} `json:"fleet"`
			Events     int64   `json:"events"`
			Expected   int64   `json:"expected_violations"`
			Unexpected int64   `json:"unexpected_violations"`
			Throughput float64 `json:"throughput_per_sec"`
			Completion struct {
				P50Ns int64 `json:"p50_ns"`
			} `json:"completion"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		model := r.Scenario.Model
		if len(r.Scenario.Spec) > 0 {
			model += " (inline spec)"
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %.2f | %d / %d | %.0f ms |\n", r.Scenario.Name, model, r.Fleet.Instances,
			r.Events, r.Throughput, r.Expected, r.Unexpected, math.Round(float64(r.Completion.P50Ns)/1e6))
	}
	return b.String()
}
