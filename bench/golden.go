package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"asagen"
)

//go:embed golden/digests.json
var goldenJSON []byte

// goldenFile is the checked-in reference: what every sweep artefact must
// hash to, and the paper's Table 1.
type goldenFile struct {
	// Table1 maps the commit protocol's replication factor to the final
	// state count the paper publishes.
	Table1 map[string]int `json:"table1_final_states"`
	// Digests maps "<model>/<param>/<format>" to the artefact's sha256.
	Digests map[string]string `json:"digests"`
}

func digestKey(model string, param int, format string) string {
	return fmt.Sprintf("%s/%d/%s", model, param, format)
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/digests.json: %w", err)
	}
	return &g, nil
}

// table1 is the paper's Table 1, final-state column.
var table1 = map[int]int{4: 33, 7: 85, 13: 261, 25: 901, 46: 2945}

// verifyTable1 generates the five published family members through the
// SDK and compares their final state counts with the manifest.
func verifyTable1() error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	for r, want := range table1 {
		if g.Table1[fmt.Sprint(r)] != want {
			return fmt.Errorf("golden table1[%d] = %d, the paper says %d", r, g.Table1[fmt.Sprint(r)], want)
		}
		m, err := client.Generate(context.Background(), "commit", asagen.WithParam(r))
		if err != nil {
			return fmt.Errorf("generate commit r=%d: %w", r, err)
		}
		if got := m.Stats().FinalStates; got != want {
			return fmt.Errorf("commit r=%d has %d final states, Table 1 says %d", r, got, want)
		}
	}
	return nil
}

// sweepPoint is one (model, param) of the registry's declared sweep.
type sweepPoint struct {
	model string
	param int
}

// sweep lists every registry model × its sweep params, models by name and
// params ascending (as the SDK lists them): 26 points, 182 artefacts over
// the 7 formats.
func sweep(client *asagen.Client) []sweepPoint {
	var points []sweepPoint
	for _, info := range client.Models() {
		for _, p := range info.SweepParams {
			points = append(points, sweepPoint{info.Name, p})
		}
	}
	return points
}

// writeGolden renders the sweep in-process and rewrites the manifest. It
// is run by hand (-update-golden) when an artefact format changes on
// purpose; the diff of digests.json is then the record of that change.
func writeGolden(root string) error {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	g := goldenFile{Table1: map[string]int{}, Digests: map[string]string{}}
	for r, n := range table1 {
		g.Table1[fmt.Sprint(r)] = n
	}
	for _, pt := range sweep(client) {
		for _, format := range client.Formats() {
			res, err := client.Render(context.Background(), asagen.Request{Model: pt.model, Param: pt.param, Format: format})
			if err != nil {
				return err
			}
			sum := sha256.Sum256(res.Data)
			g.Digests[digestKey(pt.model, pt.param, format)] = hex.EncodeToString(sum[:])
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden", "digests.json"), append(data, '\n'), 0o644)
}
