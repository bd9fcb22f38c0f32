package render_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
)

func init() {
	render.SweepMachines = sweepMachines
	render.SweepEFSMs = sweepEFSMs
}

// sweepMachines generates every registry model at every sweep parameter.
func sweepMachines(t testing.TB) map[string]*core.StateMachine {
	t.Helper()
	out := map[string]*core.StateMachine{}
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range entry.SweepParams {
			model, err := entry.Model(p)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, p, err)
			}
			machine, err := core.Generate(context.Background(), model)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, p, err)
			}
			out[fmt.Sprintf("%s/r=%d", name, p)] = machine
		}
	}
	return out
}

// sweepEFSMs generalises every registry model at every sweep parameter.
func sweepEFSMs(t testing.TB) map[string]*core.EFSM {
	t.Helper()
	out := map[string]*core.EFSM{}
	for key, machine := range sweepMachines(t) {
		entry, err := models.Get(strings.Split(key, "/")[0])
		if err != nil {
			t.Fatal(err)
		}
		abs, err := entry.Abstraction(machine.Parameter)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if out[key], err = core.GeneralizeEFSM(machine, abs); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	return out
}
