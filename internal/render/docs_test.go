package render_test

import (
	"context"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// pipesSpec is accepted with model text that markdown reads as markup: a
// '|' splits a GFM table row, a backtick ends a code span.
const pipesSpec = `{
  "name": "pipes",
  "components": [{"name": "n", "kind": "int", "max": {"param": true}}],
  "messages": ["GO|NOW", "STOP"],
  "rules": [
    {"message": "GO|NOW", "when": [{"component": "n", "op": "<", "value": {"param": true}}],
     "set": [{"component": "n", "add": 1}], "actions": ["->a|b", "->x` + "`" + `y"]},
    {"message": "STOP", "when": [{"component": "n", "op": "==", "value": {"param": true}}], "finish": true}
  ]
}`

// mdCells splits a GFM table row into its cells: a '|' ends a cell unless
// a backslash escapes it, and the escape is dropped from the cell.
func mdCells(row string) []string {
	row = strings.TrimSuffix(strings.TrimPrefix(row, "|"), "|")
	var cells []string
	var cell strings.Builder
	for i := 0; i < len(row); i++ {
		switch {
		case row[i] == '\\' && i+1 < len(row) && row[i+1] == '|':
			cell.WriteByte('|')
			i++
		case row[i] == '|':
			cells = append(cells, cell.String())
			cell.Reset()
		default:
			cell.WriteByte(row[i])
		}
	}
	return append(cells, cell.String())
}

// mdCodeSpans reads the code spans of a line of inline markdown as
// CommonMark does: a run of n backticks opens a span that the next run
// of exactly n closes, and one blank is stripped from each end of a text
// that starts and ends with one and is not all blanks. A run that nothing
// closes is literal text.
func mdCodeSpans(line string) []string {
	run := func(i int) int {
		j := i
		for j < len(line) && line[j] == '`' {
			j++
		}
		return j - i
	}
	var spans []string
	for i := 0; i < len(line); {
		n := run(i)
		if n == 0 {
			i++
			continue
		}
		closed := false
		for j := i + n; j < len(line); {
			m := run(j)
			if m == 0 {
				j++
				continue
			}
			if m == n {
				text := line[i+n : j]
				if len(text) > 1 && text[0] == ' ' && text[len(text)-1] == ' ' && strings.Trim(text, " ") != "" {
					text = text[1 : len(text)-1]
				}
				spans, i, closed = append(spans, text), j+m, true
				break
			}
			j += m
		}
		if !closed {
			i += n
		}
	}
	return spans
}

// readDoc checks a doc artefact as a markdown reader sees it: every row of
// a table has its header's cell count, and every code span reads back as
// one of the model texts. It returns the texts read.
func readDoc(t *testing.T, doc string, texts map[string]bool) map[string]bool {
	t.Helper()
	read := map[string]bool{}
	header := 0
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			header = 0
			for _, span := range mdCodeSpans(line) {
				read[span] = true
			}
			continue
		}
		cells := mdCells(line)
		if header == 0 {
			header = len(cells)
		} else if len(cells) != header {
			t.Errorf("row %q has %d cells under a header of %d", line, len(cells), header)
		}
		for _, cell := range cells {
			for _, span := range mdCodeSpans(cell) {
				read[span] = true
			}
		}
	}
	for span := range read {
		if !texts[span] {
			t.Errorf("code span %q is none of the model's texts", span)
		}
	}
	return read
}

// machineTexts are the texts a doc artefact writes as code spans.
func machineTexts(m *core.StateMachine) map[string]bool {
	texts := map[string]bool{m.ModelName: true}
	var components []string
	for _, c := range m.Components {
		components = append(components, c.Name())
	}
	texts[strings.Join(components, "/")] = true
	for _, msg := range m.Messages {
		texts[msg] = true
	}
	for _, s := range m.States {
		texts[s.Name] = true
		for _, name := range s.MergedNames {
			texts[name] = true
		}
		for _, tr := range s.Transitions {
			for _, a := range tr.Actions {
				texts[a] = true
			}
		}
	}
	delete(texts, "") // no code span is empty: two backticks are text
	return texts
}

// TestDocHoldsMarkdownText: a spec's messages and actions with '|' and
// backticks keep the doc's tables whole and read back as themselves, and
// so do names that start or end with backticks or blanks.
func TestDocHoldsMarkdownText(t *testing.T) {
	compiled, err := spec.ParseAndCompile([]byte(pipesSpec))
	if err != nil {
		t.Fatal(err)
	}
	model, err := compiled.Entry().Model(2)
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := core.Generate(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	diagram := render.DiagramMachine(&render.XMLDiagram{
		Model: "`tick`", Messages: []string{"``", " x ", "a|b`|"},
		States: []render.XMLState{
			{ID: "s0", Name: "`", Start: true},
			{ID: "s1", Name: "` a `"},
			{ID: "s2", Name: "x ``` y", Final: true},
		},
		Edges: []render.XMLTransition{
			{From: "s0", To: "s1", Message: "``", Actions: []string{"->|", "` `", " "}},
			{From: "s1", To: "s2", Message: " x ", Actions: []string{`\|`}},
			{From: "s2", To: "s0", Message: "a|b`|"},
		},
	})
	doc, err := render.New("doc")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.StateMachine{fromSpec, diagram} {
		art, err := doc.Render(m)
		if err != nil {
			t.Fatal(err)
		}
		texts := machineTexts(m)
		read := readDoc(t, art.String(), texts)
		for text := range texts {
			if !read[text] {
				t.Errorf("%s: %q is not read back from any code span:\n%s", m.ModelName, text, art.Data)
			}
		}
	}
}
