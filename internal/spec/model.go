package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"asagen/internal/core"
)

// Compiled is a validated specification ready to instantiate core.Model
// family members. It is immutable and safe for concurrent use.
type Compiled struct {
	doc Doc
	// compIdx maps component names to their vector index.
	compIdx map[string]int
	// msgIdx maps each declared message to its position in doc.Messages.
	msgIdx map[string]int
	// byMsg lists each message's rules, by position in doc.Rules and in
	// document order (the first matching rule fires), and msgWhen their
	// guards; both are indexed like doc.Messages.
	byMsg   [][]int
	msgWhen [][][]guard
	// describeWhen and labelWhen are the guards of doc.Describe and of the
	// abstraction's labels. Every guard has its component resolved to a
	// vector index.
	describeWhen, labelWhen [][]guard
	// memberWhen is msgWhen followed by describeWhen: the guard lists a
	// member builds tables of.
	memberWhen [][][]guard
	// placeholders are the components' "{name}" keys, by vector index.
	placeholders []string
	// fillKeys are the placeholders a parameter fixes: "{param}", then each
	// derived value's in document order.
	fillKeys []string
	// extra is the behavioural identity material folded into model
	// fingerprints, so two specs that share declared structure but differ
	// in rules never collide in the generation cache.
	extra []string
}

// guard is one condition with its component resolved to a vector index.
type guard struct {
	idx int
	op  string
	val Value
}

// newCompiled indexes a validated document whose canonical form is
// foreseen to take canonSize bytes (0: not foreseen), taking the component
// and message indexes compile built while validating it. compile is the
// only caller.
func newCompiled(d Doc, compIdx, msgIdx map[string]int, canonSize int) *Compiled {
	c := &Compiled{
		doc:          d,
		compIdx:      compIdx,
		msgIdx:       msgIdx,
		placeholders: make([]string, len(d.Components)),
		fillKeys:     make([]string, 1+len(d.Derived)),
	}
	for i, comp := range d.Components {
		c.placeholders[i] = "{" + comp.Name + "}"
	}
	c.fillKeys[0] = "{" + paramPlaceholder + "}"
	for i, dv := range d.Derived {
		c.fillKeys[1+i] = "{" + dv.Name + "}"
	}
	var labels []LabelRule
	if d.Abstraction != nil {
		labels = d.Abstraction.Labels
	}
	guards := 0
	for _, r := range d.Rules {
		guards += len(r.When)
	}
	for _, r := range d.Describe {
		guards += len(r.When)
	}
	for _, l := range labels {
		guards += len(l.When)
	}
	arena := make([]guard, 0, guards)
	resolve := func(conds []Cond) []guard {
		from := len(arena)
		for _, cond := range conds {
			arena = append(arena, guard{idx: c.compIdx[cond.Component], op: cond.Op, val: cond.Value})
		}
		return arena[from:len(arena):len(arena)]
	}
	when := make([][]guard, len(d.Rules)+len(d.Describe)+len(labels))
	c.describeWhen = when[len(d.Rules) : len(d.Rules)+len(d.Describe)]
	for i, r := range d.Describe {
		c.describeWhen[i] = resolve(r.When)
	}
	c.labelWhen = when[len(d.Rules)+len(d.Describe):]
	for i, l := range labels {
		c.labelWhen[i] = resolve(l.When)
	}
	// Each message's rules, and their guards, are a window of one array
	// each, sized by a counting pass.
	counts := make([]int, len(d.Messages))
	for _, r := range d.Rules {
		counts[c.msgIdx[r.Message]]++
	}
	order := make([]int, len(d.Rules))
	c.byMsg = make([][]int, len(d.Messages))
	c.memberWhen = make([][][]guard, len(d.Messages)+1)
	c.msgWhen = c.memberWhen[:len(d.Messages)]
	c.memberWhen[len(d.Messages)] = c.describeWhen
	for mi, n := range counts {
		c.byMsg[mi], order = order[:0:n], order[n:]
		c.msgWhen[mi], when = when[:0:n], when[n:]
	}
	for i, r := range d.Rules {
		mi := c.msgIdx[r.Message]
		c.byMsg[mi] = append(c.byMsg[mi], i)
		c.msgWhen[mi] = append(c.msgWhen[mi], resolve(r.When))
	}

	// The canonical JSON of the whole document is deterministic (struct
	// field order) and covers every behaviour-bearing field.
	c.extra = []string{"asagen/spec/v1", canonical(&d, canonSize)}
	return c
}

// Doc returns a copy of the compiled document.
func (c *Compiled) Doc() Doc { return c.doc }

// JSON returns the canonical JSON encoding of the compiled document — the
// wire form of POST /v1/models and the fsmgen -spec file format: the
// canonical form indented, which is what encoding/json's MarshalIndent
// writes for the document.
func (c *Compiled) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, []byte(c.extra[1]), "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Name returns the registry key the spec registers under.
func (c *Compiled) Name() string { return c.doc.Name }

// HasEFSM reports whether the spec declares the EFSM abstraction hints.
func (c *Compiled) HasEFSM() bool { return c.doc.Abstraction != nil }

// Model instantiates the family member for a parameter value (<= 0 selects
// the spec's default parameter). A spec that declares its fault tolerance
// yields a model with a FaultTolerance method. What a member costs to
// build depends on the number of guards, not on the parameter.
func (c *Compiled) Model(param int) (core.Model, error) {
	if param <= 0 {
		param = c.doc.DefaultParam
	}
	if param < c.doc.MinParam {
		return nil, fmt.Errorf("spec: model %q: %s %d < %d", c.doc.Name, c.doc.ParamName, param, c.doc.MinParam)
	}
	s := scopeAt(c.doc.Derived, param)
	for i, comp := range c.doc.Components {
		if comp.Kind == KindInt && comp.Max.eval(s) < 0 {
			return nil, fmt.Errorf("spec: model %q: component %q max %s is negative at %s %d",
				c.doc.Name, comp.Name, comp.Max, c.doc.ParamName, param)
		}
		if i < len(c.doc.Start) {
			if v := c.doc.Start[i].eval(s); v < 0 || v > c.maxOf(comp, s) {
				return nil, fmt.Errorf("spec: model %q: start value %s of component %q is outside [0, %d] at %s %d",
					c.doc.Name, c.doc.Start[i], comp.Name, c.maxOf(comp, s), c.doc.ParamName, param)
			}
		}
	}
	m := &specModel{c: c, param: param, scope: s}
	m.compile()
	if c.doc.FaultTolerance != nil {
		return tolerantModel{m}, nil
	}
	return m, nil
}

// maxOf returns the component's largest legal value in the scope.
func (c *Compiled) maxOf(comp Component, s scope) int {
	if comp.Kind == KindBool {
		return 1
	}
	return comp.Max.eval(s)
}

// maxes returns every component's largest legal value in the scope.
func (c *Compiled) maxes(s scope) []int {
	out := make([]int, len(c.doc.Components))
	for i, comp := range c.doc.Components {
		out[i] = c.maxOf(comp, s)
	}
	return out
}

// Entry returns the registry entry for the compiled spec, wiring the model
// builder and — when the spec declares abstraction hints — the EFSM
// abstraction.
func (c *Compiled) Entry() core.Entry {
	e := core.Entry{
		Name:         c.doc.Name,
		Description:  c.doc.Description,
		ParamName:    c.doc.ParamName,
		DefaultParam: c.doc.DefaultParam,
		SweepParams:  append([]int(nil), c.doc.SweepParams...),
		Vocabulary:   c.doc.Vocabulary,
		Build:        c.Model,
		Spec:         c.doc,
	}
	if c.HasEFSM() {
		e.Abstraction = func(param int) (core.EFSMAbstraction, error) {
			return newAbstraction(c, param), nil
		}
	}
	return e
}

// table is a first-match dispatch table over a list of guard conjunctions
// (a message's rules, the describe rules, the label rules) for one family
// member. The list is cut into blocks of 64 in document order; bit i of a
// block's masks stands for its i-th entry. Within a block, each component
// some guard constrains has its domain [0, max] split at the points where
// one of the block's guards on it changes its verdict, with one mask per
// interval of the entries the interval admits. An entry matches a state
// when every component's mask admits it, so the first match is the lowest
// bit of the AND of one mask per split, in the first block where that AND
// is not zero. The table holds O(guards) words whatever the parameter.
type table struct {
	blocks []block
}

// block is up to 64 consecutive entries of a table.
type block struct {
	// all holds the entries that no guard on an unsplit component refutes:
	// a component whose guards give one verdict over its whole domain needs
	// no split.
	all    uint64
	splits []split
}

// split is one component's domain cut at a block's breakpoints.
type split struct {
	idx int
	// at holds the ascending breakpoints in [1, max]: interval 0 is
	// [0, at[0]), interval k is [at[k-1], at[k]), the last ends at max.
	at []int
	// masks holds the entries each interval admits, len(at)+1 of them.
	masks []uint64
}

// mask returns the entries the component value admits.
func (s *split) mask(val int) uint64 { return s.masks[interval(s.at, val)] }

// interval returns the number of breakpoints at or below val: the
// position of the interval val is in.
func interval(at []int, val int) int {
	lo, hi := 0, len(at)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if at[h] <= val {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// match returns the entries of block b that admit state v.
func (t *table) match(v core.Vector, b int) uint64 {
	blk := &t.blocks[b]
	set := blk.all
	for i := range blk.splits {
		if set == 0 {
			break
		}
		set &= blk.splits[i].mask(v[blk.splits[i].idx])
	}
	return set
}

// first returns the position of the first entry that admits state v, or -1.
func (t *table) first(v core.Vector) int {
	for b := range t.blocks {
		if set := t.match(v, b); set != 0 {
			return b<<6 | bits.TrailingZeros64(set)
		}
	}
	return -1
}

// tables builds one member's tables out of arenas sized up front by the
// number of guards, so every append fits and a member costs the same
// allocations at any parameter.
type tables struct {
	maxes  []int
	scope  scope
	blocks []block
	splits []split
	at     []int
	masks  []uint64
	// scratch holds one block's guards grouped by component, the groups
	// in the order their components first appear in the block; ends and
	// comps keep count while build groups them.
	scratch []blockGuard
	ends    []int
	comps   []int
}

// blockGuard is a guard of a block's entry, its value resolved.
type blockGuard struct {
	bit  uint
	op   string
	want int
}

// newTables sizes the arenas for the guard lists the member will build
// tables of.
func newTables(maxes []int, s scope, lists [][][]guard) *tables {
	blocks, guards, splits, widest := 0, 0, 0, 0
	for _, when := range lists {
		for lo := 0; lo < len(when); lo += 64 {
			n := 0
			for _, gs := range when[lo:min(lo+64, len(when))] {
				n += len(gs)
			}
			blocks++
			guards += n
			splits += min(n, len(maxes))
			widest = max(widest, n)
		}
	}
	// Each guard adds at most two breakpoints, and a split's masks number
	// its breakpoints plus one.
	return &tables{
		maxes:   maxes,
		scope:   s,
		blocks:  make([]block, 0, blocks),
		splits:  make([]split, 0, splits),
		at:      make([]int, 0, 2*guards),
		masks:   make([]uint64, 0, 2*guards+splits),
		scratch: make([]blockGuard, widest),
		ends:    make([]int, len(maxes)),
		comps:   make([]int, 0, min(widest, len(maxes))),
	}
}

// build returns the table of a guard list.
func (ts *tables) build(when [][]guard) table {
	from := len(ts.blocks)
	for lo := 0; lo < len(when); lo += 64 {
		entries := when[lo:min(lo+64, len(when))]
		blk := block{all: ^uint64(0) >> (64 - len(entries))}
		// A counting sort: count each component's guards, turn the counts
		// into the groups' starts, then place the guards.
		ts.comps = ts.comps[:0]
		for _, gs := range entries {
			for _, g := range gs {
				if ts.ends[g.idx] == 0 {
					ts.comps = append(ts.comps, g.idx)
				}
				ts.ends[g.idx]++
			}
		}
		n := 0
		for _, c := range ts.comps {
			n, ts.ends[c] = n+ts.ends[c], n
		}
		for bit, gs := range entries {
			for _, g := range gs {
				ts.scratch[ts.ends[g.idx]] = blockGuard{bit: uint(bit), op: g.op, want: g.val.eval(ts.scope)}
				ts.ends[g.idx]++
			}
		}
		splitsFrom, start := len(ts.splits), 0
		for _, c := range ts.comps {
			ts.split(&blk, c, ts.scratch[start:ts.ends[c]])
			start, ts.ends[c] = ts.ends[c], 0
		}
		blk.splits = ts.splits[splitsFrom:len(ts.splits):len(ts.splits)]
		ts.blocks = append(ts.blocks, blk)
	}
	return table{blocks: ts.blocks[from:len(ts.blocks):len(ts.blocks)]}
}

// split adds the split of component idx that gs, a block's guards on it
// in entry order, constrain. Admission only changes at a guard's value or
// the one after it, so those are the breakpoints, and every bound an
// entry's guards set starts or ends an interval. An entry's guards admit
// the values between their largest lower and smallest upper bound, less
// those its != guards exclude; setting its bit across that range costs
// each entry at most one pass over the intervals. A component whose
// guards give one verdict over the whole domain needs no split: the
// verdict folds into the block's all.
func (ts *tables) split(blk *block, idx int, gs []blockGuard) {
	limit := ts.maxes[idx]
	atFrom, masksFrom := len(ts.at), len(ts.masks)
	cut := func(x int) { // x is in the domain and has a predecessor
		if 1 <= x && x <= limit {
			ts.at = append(ts.at, x)
		}
	}
	cutAfter := func(x int) { // x+1, without overflowing
		if 0 <= x && x < limit {
			ts.at = append(ts.at, x+1)
		}
	}
	guarded := uint64(0)
	for _, g := range gs {
		guarded |= 1 << g.bit
		switch g.op {
		case OpEq, OpNe:
			cut(g.want)
			cutAfter(g.want)
		case OpLt, OpGe:
			cut(g.want)
		case OpLe, OpGt:
			cutAfter(g.want)
		}
	}
	slices.Sort(ts.at[atFrom:])
	ts.at = ts.at[:atFrom+len(slices.Compact(ts.at[atFrom:]))]
	at := ts.at[atFrom:len(ts.at):len(ts.at)]
	for range len(at) + 1 {
		ts.masks = append(ts.masks, blk.all&^guarded)
	}
	masks := ts.masks[masksFrom:len(ts.masks):len(ts.masks)]
	for i := 0; i < len(gs); {
		j := i + 1
		for j < len(gs) && gs[j].bit == gs[i].bit {
			j++
		}
		lo, hi, empty := 0, limit, false
		for _, g := range gs[i:j] {
			switch w := g.want; g.op {
			case OpEq:
				lo, hi = max(lo, w), min(hi, w)
			case OpLt:
				if w <= 0 {
					empty = true
				} else {
					hi = min(hi, w-1)
				}
			case OpLe:
				hi = min(hi, w)
			case OpGt:
				if w >= limit {
					empty = true
				} else {
					lo = max(lo, w+1)
				}
			case OpGe:
				lo = max(lo, w)
			}
		}
		if !empty && lo <= hi {
			bit := uint64(1) << gs[i].bit
			for k := interval(at, lo); k <= interval(at, hi); k++ {
				masks[k] |= bit
			}
			for _, g := range gs[i:j] {
				if g.op == OpNe && lo <= g.want && g.want <= hi {
					masks[interval(at, g.want)] &^= bit
				}
			}
		}
		i = j
	}
	if !slices.ContainsFunc(masks[1:], func(m uint64) bool { return m != masks[0] }) {
		blk.all &= masks[0]
		ts.at, ts.masks = ts.at[:atFrom], ts.masks[:masksFrom]
		return
	}
	ts.splits = append(ts.splits, split{idx: idx, at: at, masks: masks})
}

// cAssign is one compiled component update with the parameter resolved.
type cAssign struct {
	idx int
	set bool
	val int // the overwrite value when set, the delta otherwise
}

// cRule is one rule compiled for a concrete parameter: resolved
// assignments, and the action and annotation lists (empty lists normalised
// to nil) so Apply returns them without per-call cloning. The annotations
// have their parameter and derived placeholders filled in; perTarget marks
// a rule whose annotations name a component, which Apply fills in from the
// target state.
type cRule struct {
	sets        []cAssign
	actions     []string
	annotations []string
	perTarget   bool
	finish      bool
}

// cMessage is one message's compiled rules and the table that picks the
// one that fires.
type cMessage struct {
	dispatch table
	rules    []cRule
}

// specModel is one family member of a compiled spec: core.Model plus the
// Fingerprinter extra identifying the rule set. The rule set is compiled
// against the concrete parameter at construction, so Apply — the
// exploration's inner loop — looks the message up once, ANDs one mask per
// split component and updates integers.
type specModel struct {
	c     *Compiled
	param int
	scope scope
	// maxes[i] is component i's largest legal value at the parameter.
	maxes []int
	// fills are the values of c.fillKeys at the parameter.
	fills []string
	// messages holds the compiled rules per message, indexed like
	// doc.Messages.
	messages []cMessage
	// describe holds the describe texts with their parameter and derived
	// placeholders filled in, and describes the table of their guards.
	describe  []string
	describes table
}

// compile resolves every parameter-dependent value and builds the
// dispatch tables.
func (m *specModel) compile() {
	d := &m.c.doc
	m.maxes = m.c.maxes(m.scope)
	m.fills = m.fillValues()
	ts := newTables(m.maxes, m.scope, m.c.memberWhen)
	sets := 0
	for _, r := range d.Rules {
		sets += len(r.Set)
	}
	assigns := make([]cAssign, 0, sets)
	rules := make([]cRule, len(d.Rules))
	m.messages = make([]cMessage, len(d.Messages))
	for mi, order := range m.c.byMsg {
		crs := rules[:len(order):len(order)]
		rules = rules[len(order):]
		for k, ri := range order {
			r, cr := &d.Rules[ri], &crs[k]
			from := len(assigns)
			for _, a := range r.Set {
				ca := cAssign{idx: m.c.compIdx[a.Component]}
				if a.Set != nil {
					ca.set = true
					ca.val = a.Set.eval(m.scope)
				} else {
					ca.val = a.Add
				}
				assigns = append(assigns, ca)
			}
			cr.sets = assigns[from:len(assigns):len(assigns)]
			if len(r.Actions) > 0 {
				cr.actions = r.Actions
			}
			cr.annotations = m.fillAll(r.Annotations)
			cr.perTarget = slices.ContainsFunc(cr.annotations, m.namesComponent)
			cr.finish = r.Finish
		}
		m.messages[mi] = cMessage{dispatch: ts.build(m.c.msgWhen[mi]), rules: crs}
	}
	m.describe = make([]string, len(d.Describe))
	for i, r := range d.Describe {
		m.describe[i] = m.fill(r.Text)
	}
	m.describes = ts.build(m.c.describeWhen)
}

var (
	_ core.Model         = (*specModel)(nil)
	_ core.Fingerprinter = (*specModel)(nil)
)

// Name implements core.Model.
func (m *specModel) Name() string { return m.c.doc.ModelName }

// Parameter implements core.Model.
func (m *specModel) Parameter() int { return m.param }

// Components implements core.Model.
func (m *specModel) Components() []core.StateComponent {
	out := make([]core.StateComponent, len(m.c.doc.Components))
	for i, comp := range m.c.doc.Components {
		if comp.Kind == KindBool {
			out[i] = core.NewBoolComponent(comp.Name)
		} else {
			out[i] = core.NewIntComponent(comp.Name, m.maxes[i])
		}
	}
	return out
}

// Messages implements core.Model.
func (m *specModel) Messages() []string {
	return append([]string(nil), m.c.doc.Messages...)
}

// Start implements core.Model.
func (m *specModel) Start() core.Vector {
	v := make(core.Vector, len(m.c.doc.Components))
	for i, val := range m.c.doc.Start {
		v[i] = val.eval(m.scope)
	}
	return v
}

// Apply implements core.Model: the message's table picks the first rule,
// in document order, whose guards all admit the state, and that rule
// fires. A firing rule whose effect would drive any component outside its
// declared domain makes the message not applicable in that state instead
// — the implicit range guard that keeps every expressible spec a total,
// well-formed model (the paper's InvalidStateException path, Fig. 10):
// authors may write an unguarded counter increment and the machine simply
// stops reacting at the bound.
//
// The effect's action and annotation lists alias the compiled rule, which
// never changes. Only a rule whose annotations name a component composes
// annotations of its own, each interned by the generation, so that a
// composed line recurring on many edges is one string.
func (m *specModel) Apply(v core.Vector, msg int, eff *core.Effect) bool {
	if msg < 0 || msg >= len(m.messages) {
		return false
	}
	cm := &m.messages[msg]
	ri := cm.dispatch.first(v)
	if ri < 0 {
		return false
	}
	r := &cm.rules[ri]
	s := eff.Target
	for _, a := range r.sets {
		if a.set {
			s[a.idx] = a.val
		} else {
			s[a.idx] += a.val
		}
		if s[a.idx] < 0 || s[a.idx] > m.maxes[a.idx] {
			return false
		}
	}
	eff.Actions = r.actions
	eff.Finished = r.finish
	if !r.perTarget {
		eff.Annotations = r.annotations
		return true
	}
	for _, note := range r.annotations {
		if strings.Contains(note, "{") {
			eff.AnnotationBytes(m.appendExpanded(eff.Scratch(), note, s))
		} else {
			eff.Annotations = append(eff.Annotations, note)
		}
	}
	return true
}

// DescribeState implements core.Model: every matching describe rule
// contributes one line, with its placeholders substituted.
func (m *specModel) DescribeState(v core.Vector, t *core.Text) {
	for b := range m.describes.blocks {
		for set := m.describes.match(v, b); set != 0; set &= set - 1 {
			text := m.describe[b<<6|bits.TrailingZeros64(set)]
			if strings.Contains(text, "{") {
				t.LineBytes(m.appendExpanded(t.Scratch(), text, v))
			} else {
				t.Line(text)
			}
		}
	}
}

// fillValues formats the values of the fill keys at the parameter: the
// parameter, then each derived value. They are cut from one string, so
// how many allocations a member costs does not depend on how many digits
// its values have.
func (m *specModel) fillValues() []string {
	keys := m.c.fillKeys
	buf := make([]byte, 0, len(keys)*(len("-9223372036854775808")+1))
	buf = strconv.AppendInt(buf, int64(m.param), 10)
	ends := make([]int, len(keys))
	ends[0] = len(buf)
	for i, dv := range m.c.doc.Derived {
		buf = strconv.AppendInt(append(buf, ','), int64(m.scope.derived[dv.Name]), 10)
		ends[1+i] = len(buf)
	}
	all := string(append(buf, ','))
	vals := make([]string, len(keys))
	from := 0
	for i, end := range ends {
		vals[i] = all[from:end]
		from = end + 1
	}
	return vals
}

// fill substitutes the placeholders whose values the parameter fixes:
// "{param}", then each derived value's in document order.
func (m *specModel) fill(text string) string {
	if !strings.Contains(text, "{") {
		return text
	}
	for i, key := range m.c.fillKeys {
		if strings.Contains(text, key) {
			text = strings.ReplaceAll(text, key, m.fills[i])
		}
	}
	return text
}

// fillAll fills each text in; it returns texts itself, or nil when it is
// empty, unless some placeholder was filled in.
func (m *specModel) fillAll(texts []string) []string {
	if len(texts) == 0 {
		return nil
	}
	out := texts
	for i, text := range texts {
		if filled := m.fill(text); filled != text {
			if &out[0] == &texts[0] {
				out = append([]string(nil), texts...)
			}
			out[i] = filled
		}
	}
	return out
}

// namesComponent reports whether text holds a component placeholder.
func (m *specModel) namesComponent(text string) bool {
	for _, key := range m.c.placeholders {
		if strings.Contains(text, key) {
			return true
		}
	}
	return false
}

// appendExpanded appends the filled text to b with the component
// placeholders substituted by their values in state v, one placeholder
// after another in vector order.
func (m *specModel) appendExpanded(b []byte, text string, v core.Vector) []byte {
	from := len(b)
	b = append(b, text...)
	for idx, key := range m.c.placeholders {
		end := len(b)
		i := index(b[from:end], key)
		if i < 0 {
			continue
		}
		// Write the replaced text after b[from:end], then move it down.
		for src := b[from:end]; ; i = index(src, key) {
			if i < 0 {
				b = append(b, src...)
				break
			}
			b = strconv.AppendInt(append(b, src[:i]...), int64(v[idx]), 10)
			src = src[i+len(key):]
		}
		b = b[:from+copy(b[from:], b[end:])]
	}
	return b
}

// index returns the position of the first s in b, -1 for none.
func index(b []byte, s string) int {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return i
		}
	}
	return -1
}

// FingerprintExtra implements core.Fingerprinter: the canonical document
// JSON, so behaviourally different specs never collide on one cache entry
// even when their declared structure matches.
func (m *specModel) FingerprintExtra() []string { return m.c.extra }

// tolerantModel is a family member of a spec that declares its fault
// tolerance; Machine.FaultTolerance and the version service read it
// through this method.
type tolerantModel struct{ *specModel }

// FaultTolerance returns the declared fault tolerance at the parameter.
func (m tolerantModel) FaultTolerance() int { return m.c.doc.FaultTolerance.eval(m.scope) }

// specAbstraction adapts the spec's abstraction hints to
// core.EFSMAbstraction at one parameter.
type specAbstraction struct {
	c *Compiled
	// labels is the table of the label rules' guards.
	labels table
	// symbols are the symbol rules' values at the parameter.
	symbols []int
}

var _ core.EFSMAbstraction = (*specAbstraction)(nil)

// newAbstraction resolves the spec's abstraction hints at param.
func newAbstraction(c *Compiled, param int) *specAbstraction {
	s := scopeAt(c.doc.Derived, param)
	maxes := c.maxes(s)
	a := &specAbstraction{
		c:       c,
		labels:  newTables(maxes, s, [][][]guard{c.labelWhen}).build(c.labelWhen),
		symbols: make([]int, len(c.doc.Abstraction.Symbols)),
	}
	for i, sym := range c.doc.Abstraction.Symbols {
		a.symbols[i] = sym.Value.eval(s)
	}
	return a
}

// StateLabel implements core.EFSMAbstraction: first matching label rule
// wins; validation guarantees the final rule is unconditional.
func (a *specAbstraction) StateLabel(v core.Vector) string {
	if i := a.labels.first(v); i >= 0 {
		return a.c.doc.Abstraction.Labels[i].Label
	}
	return "UNLABELLED" // unreachable: the final rule is unconditional
}

// GuardComponent implements core.EFSMAbstraction.
func (a *specAbstraction) GuardComponent(msg string) int {
	for _, g := range a.c.doc.Abstraction.Guards {
		if g.Message == msg {
			return a.c.compIdx[g.Component]
		}
	}
	return -1
}

// VarOps implements core.EFSMAbstraction.
func (a *specAbstraction) VarOps(msg string) []core.VarOp {
	var ops []core.VarOp
	for _, op := range a.c.doc.Abstraction.Ops {
		if op.Message == msg {
			ops = append(ops, core.VarOp{Variable: op.Component, Delta: op.Delta})
		}
	}
	return ops
}

// Symbol implements core.EFSMAbstraction: the first symbol rule whose
// value matches wins; unmatched values keep the literal rendering.
func (a *specAbstraction) Symbol(component, value int) string {
	for i, v := range a.symbols {
		if v == value {
			return a.c.doc.Abstraction.Symbols[i].Text
		}
	}
	return ""
}
