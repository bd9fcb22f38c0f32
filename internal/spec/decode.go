package spec

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// decoder reads a Doc out of its JSON text in one pass. It knows the
// schema — a table of fields per struct, at the end of this file — so it
// reflects on nothing and scans nothing twice. It holds the text to the
// strict reading: an object names each key once and in its exact case, a
// string is valid UTF-8, an integer has no fraction or exponent; null is an
// absent value. The first error sticks and moves the cursor to the end.
//
// Every string of the Doc is a copy, so the text may be reused as soon as
// Parse returns. A decoder is recycled between documents (decoders): its
// scratch lists and its list of names keep their capacity for the next
// document and are cleared in between; the slabs it carves the lists of
// rules from belong to the document and are dropped.
type decoder struct {
	data  []byte
	pos   int
	err   error
	space int    // white space skipped between tokens
	buf   []byte // the string being unescaped
	// One copy of each name the document repeats: found by a scan of
	// names while there are at most smallVocab, through index after.
	names []string
	index map[string]string
	// The lists a rule holds are carved from slabs: chunks allocated for
	// this document, which the next one does not share.
	conds []Cond
	sets  []Assign
	lines []string
	// Elements of a list the document holds once wait here until the
	// array closes and its length is known.
	strs     []string
	ints     []int
	values   []Value
	derived  []Derived
	comps    []Component
	rules    []Rule
	describe []DescribeRule
	labels   []LabelRule
	guards   []GuardRule
	ops      []VarOpRule
	symbols  []SymbolRule
}

// smallVocab is how many names a document may have before they are hashed.
const smallVocab = 32

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// parse decodes data with a recycled decoder. Beside the Doc it returns the
// length of data without the white space between tokens: the size of the
// canonical form of a document that Compile fills no default into.
func parse(data []byte) (Doc, int, error) {
	d := decoders.Get().(*decoder)
	d.data, d.pos, d.err, d.space = data, 0, nil, 0
	var doc Doc
	object(d, &doc, docFields)
	if d.peek(); d.pos < len(data) {
		d.fail(d.pos, "trailing data after document")
	}
	err, compact := d.err, len(data)-d.space
	clear(d.names)
	d.data, d.err, d.names, d.index = nil, nil, d.names[:0], nil
	d.conds, d.sets, d.lines = nil, nil, nil
	decoders.Put(d)
	if err != nil {
		return Doc{}, 0, fmt.Errorf("spec: parse: %w", err)
	}
	return doc, compact, nil
}

// fail records the first error, located by line and column.
func (d *decoder) fail(at int, format string, args ...any) {
	if d.err == nil {
		before := d.data[:min(at, len(d.data))]
		d.err = fmt.Errorf("line %d, column %d: %s", 1+bytes.Count(before, []byte("\n")),
			len(before)-bytes.LastIndexByte(before, '\n'), fmt.Sprintf(format, args...))
	}
	d.pos = len(d.data)
}

// at returns the byte at i, 0 past the end.
func (d *decoder) at(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

// peek skips white space and returns the byte under the cursor.
func (d *decoder) peek() byte {
	for i, c := range d.data[d.pos:] {
		if c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			d.space += i
			d.pos += i
			return c
		}
	}
	d.space += len(d.data) - d.pos
	d.pos = len(d.data)
	return 0
}

func (d *decoder) literal(word string) bool {
	rest, ok := bytes.CutPrefix(d.data[d.pos:], []byte(word))
	d.pos = len(d.data) - len(rest)
	return ok
}

// begin consumes the byte that opens a string, an array or an object. A
// null is consumed in its place and begins nothing; anything else fails.
func (d *decoder) begin(c byte) bool {
	ok := d.peek() == c
	if ok {
		d.pos++
	} else if !d.literal("null") {
		d.fail(d.pos, "expected %q", c)
	}
	return ok
}

// more steps to the next element of the array or object just begun, over
// its comma, or over the closing byte: then there is no more. The cursor is
// left on the element.
func (d *decoder) more(closing byte, first bool) bool {
	switch c := d.peek(); {
	case c == closing:
		d.pos++
		return false
	case first:
	case c == ',':
		d.pos++
		d.peek()
	default:
		d.fail(d.pos, "expected ',' or %q", closing)
	}
	return d.err == nil
}

// field is one key of a struct T and how its value is read into a T.
type field[T any] struct {
	name string
	read func(*decoder, *T)
}

// object reads the object at the cursor into v. A key must be one of
// fields as spelt there — another case is another key — and must not have
// been used in this object before. A key is matched where it lies; only one
// that names no field as written, an escape or a malformed one, is read as
// text first.
func object[T any](d *decoder, v *T, fields []field[T]) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for first := true; d.more('}', first); first = false {
		at, k := d.pos, -1
		if d.at(at) == '"' {
			rest := d.data[at+1:]
			for i := range fields {
				if n := len(fields[i].name); n < len(rest) && rest[n] == '"' && string(rest[:n]) == fields[i].name {
					k, d.pos = i, at+n+2
					break
				}
			}
		}
		if k < 0 {
			name := d.text()
			if k = slices.IndexFunc(fields, func(f field[T]) bool { return f.name == string(name) }); k < 0 && d.err == nil {
				d.fail(at, "unknown field %q", name)
			}
		}
		switch {
		case d.err != nil:
		case seen&(1<<k) != 0:
			d.fail(at, "duplicate key %q", fields[k].name)
		case d.peek() != ':':
			d.fail(d.pos, "expected ':' after key %q", fields[k].name)
		default:
			seen |= 1 << k
			d.pos++
			fields[k].read(d, v)
		}
	}
}

// list reads an array through scratch, which the decoder keeps for the
// next array of its kind, and returns it at its exact size: nil for null,
// empty and not nil for []. An element is read where it lies in scratch,
// so elem must not use that scratch: no list nests in its kind.
func list[T any](d *decoder, scratch *[]T, elem func(*decoder, *T)) []T {
	if !d.begin('[') {
		return nil
	}
	mark := len(*scratch)
	for first := true; d.more(']', first); first = false {
		*scratch = append(*scratch, *new(T))
		elem(d, &(*scratch)[len(*scratch)-1])
	}
	out := append(make([]T, 0, len(*scratch)-mark), (*scratch)[mark:]...)
	clear((*scratch)[mark:])
	*scratch = (*scratch)[:mark]
	return out
}

// slabChunk is the most elements a slab chunk is allocated for, unless one
// list needs more: 63 Conds and the 8-byte header the allocator gives a
// block of pointers are 4 KiB, where 64 would take the next size class, a
// fifth larger. Chunks start at 8 elements and double up to it, so a small
// document is not given 4 KiB per kind.
const slabChunk = 63

// carve reads an array into slab, each element where it stays, and returns
// the window of slab that holds it: nil for null, empty and not nil for [].
// When the chunk runs out, the elements read so far move to a new one. elem
// must not carve from the same slab: no list nests in its kind.
func carve[T any](d *decoder, slab *[]T, elem func(*decoder, *T)) []T {
	if !d.begin('[') {
		return nil
	}
	s := *slab
	from := len(s)
	for first := true; d.more(']', first); first = false {
		if len(s) == cap(s) {
			n := len(s) - from
			fresh := make([]T, n, max(2*n, min(max(2*cap(s), 8), slabChunk)))
			copy(fresh, s[from:])
			s, from = fresh, 0
		}
		s = s[:len(s)+1]
		elem(d, &s[len(s)-1])
	}
	*slab = s
	if len(s) == from {
		return []T{}
	}
	return s[from:len(s):len(s)]
}

// objects reads an array of objects, each as object does.
func objects[T any](d *decoder, scratch *[]T, fields []field[T]) []T {
	return list(d, scratch, func(d *decoder, v *T) { object(d, v, fields) })
}

// optional reads an object that null leaves absent.
func optional[T any](d *decoder, fields []field[T]) *T {
	if d.peek() == 'n' && d.literal("null") {
		return nil
	}
	v := new(T)
	object(d, v, fields)
	return v
}

// plain marks the bytes a string holds as they are, without a check: the
// printable ASCII but '"' and '\\'.
var plain = func() (p [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		p[b] = b != '"' && b != '\\'
	}
	return p
}()

// text returns the string at the cursor, unescaped: a slice of the
// document while it holds no escape, d.buf from the first one on. Half a
// surrogate pair, U+FFFD to encoding/json, is an escape like \q: an error.
func (d *decoder) text() []byte {
	if !d.begin('"') {
		return nil
	}
	start := d.pos
	i := start
	for i < len(d.data) && plain[d.data[i]] {
		i++
	}
	if d.at(i) == '"' {
		d.pos = i + 1
		return d.data[start:i]
	}
	return d.unescape(start)
}

// unescape reads the rest of a string that holds an escape, a byte outside
// ASCII or a fault.
func (d *decoder) unescape(start int) []byte {
	escaped := false
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if escaped {
				s = d.buf
			}
			if !utf8.Valid(s) {
				d.fail(start, "invalid UTF-8 in string")
				return nil
			}
			d.pos = i + 1
			return s
		case c < ' ':
			d.fail(i, "control character in string")
			return nil
		case c != '\\':
			if escaped {
				d.buf = append(d.buf, c)
			}
			continue
		case !escaped:
			d.buf, escaped = append(d.buf[:0], d.data[start:i]...), true
		}
		if j := strings.IndexByte(`"\/bfnrt`, d.at(i+1)); j >= 0 {
			d.buf, i = append(d.buf, "\"\\/\b\f\n\r\t"[j]), i+1
			continue
		}
		r, ok := d.hex4(i)
		if i += 5; utf16.IsSurrogate(r) {
			low, _ := d.hex4(i + 1)
			r, i = utf16.DecodeRune(r, low), i+6
			ok = r != utf8.RuneError
		}
		if !ok {
			d.fail(i, "invalid escape in string")
			return nil
		}
		d.buf = utf8.AppendRune(d.buf, r)
	}
	d.fail(start, "unterminated string")
	return nil
}

// hex4 reads the six bytes of the \uXXXX escape that starts at i.
func (d *decoder) hex4(i int) (rune, bool) {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// name reads a string the document repeats — a component, an operator, a
// message — and returns the one copy of it.
func (d *decoder) name() string {
	b := d.text()
	if d.index == nil {
		for _, s := range d.names {
			// The last bytes tell most names apart without a call.
			if len(s) == len(b) && (len(b) == 0 || s[len(s)-1] == b[len(b)-1]) && s == string(b) {
				return s
			}
		}
	} else if s, ok := d.index[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.index != nil {
		d.index[s] = s
	} else if d.names = append(d.names, s); len(d.names) > smallVocab {
		d.index = make(map[string]string, 2*len(d.names))
		for _, n := range d.names {
			d.index[n] = n
		}
	}
	return s
}

// numeric holds the bytes an integer's text is taken to run over.
const numeric = "+-.0123456789Ee"

// int reads an integer written as strconv prints it: digits and a minus.
// Up to nine digits without a leading zero are read as they are scanned;
// anything else is held to strconv's reading of it.
func (d *decoder) int() int {
	c := d.peek()
	if c == 'n' && d.literal("null") {
		return 0
	}
	start := d.pos
	i := start
	if c == '-' {
		i++
	}
	n, digits := 0, i
	for ; i < len(d.data) && i-digits < 9 && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
		n = n*10 + int(d.data[i]-'0')
	}
	if i > digits && (d.data[digits] != '0' || i == digits+1) && strings.IndexByte(numeric, d.at(i)) < 0 {
		d.pos = i
		if c == '-' {
			return -n
		}
		return n
	}
	for strings.IndexByte(numeric, d.at(d.pos)) >= 0 {
		d.pos++
	}
	num := d.data[start:d.pos]
	n, err := strconv.Atoi(string(num))
	if errors.Is(err, strconv.ErrRange) {
		d.fail(start, "integer out of range")
	} else if d.buf = strconv.AppendInt(d.buf[:0], int64(n), 10); err != nil || !bytes.Equal(d.buf, num) && string(num) != "-0" {
		d.fail(start, "expected an integer, without fraction or exponent")
	}
	return n
}

func (d *decoder) bool() bool {
	d.peek()
	t := d.literal("true")
	if !t && !d.literal("false") && !d.literal("null") {
		d.fail(d.pos, "expected true or false")
	}
	return t
}

// The schema: the keys of each struct of a Doc, and what reads each.

func (d *decoder) texts() []string {
	return carve(d, &d.lines, func(d *decoder, s *string) { *s = string(d.text()) })
}

func (d *decoder) when() []Cond {
	return carve(d, &d.conds, func(d *decoder, c *Cond) { object(d, c, condFields) })
}

var docFields = []field[Doc]{
	{"name", func(d *decoder, v *Doc) { v.Name = string(d.text()) }},
	{"model_name", func(d *decoder, v *Doc) { v.ModelName = string(d.text()) }},
	{"description", func(d *decoder, v *Doc) { v.Description = string(d.text()) }},
	{"param_name", func(d *decoder, v *Doc) { v.ParamName = string(d.text()) }},
	{"default_param", func(d *decoder, v *Doc) { v.DefaultParam = d.int() }},
	{"min_param", func(d *decoder, v *Doc) { v.MinParam = d.int() }},
	{"sweep_params", func(d *decoder, v *Doc) {
		v.SweepParams = list(d, &d.ints, func(d *decoder, n *int) { *n = d.int() })
	}},
	{"vocabulary", func(d *decoder, v *Doc) { v.Vocabulary = string(d.text()) }},
	{"derived", func(d *decoder, v *Doc) { v.Derived = objects(d, &d.derived, derivedFields) }},
	{"fault_tolerance", func(d *decoder, v *Doc) { v.FaultTolerance = optional(d, valueFields) }},
	{"components", func(d *decoder, v *Doc) { v.Components = objects(d, &d.comps, componentFields) }},
	{"messages", func(d *decoder, v *Doc) {
		v.Messages = list(d, &d.strs, func(d *decoder, s *string) { *s = d.name() })
	}},
	{"start", func(d *decoder, v *Doc) { v.Start = objects(d, &d.values, valueFields) }},
	{"rules", func(d *decoder, v *Doc) { v.Rules = objects(d, &d.rules, ruleFields) }},
	{"describe", func(d *decoder, v *Doc) { v.Describe = objects(d, &d.describe, describeFields) }},
	{"abstraction", func(d *decoder, v *Doc) { v.Abstraction = optional(d, abstractionFields) }},
}

var valueFields = []field[Value]{
	{"param", func(d *decoder, v *Value) { v.Param = d.bool() }},
	{"derived", func(d *decoder, v *Value) { v.Derived = d.name() }},
	{"offset", func(d *decoder, v *Value) { v.Offset = d.int() }},
}

var derivedFields = []field[Derived]{
	{"name", func(d *decoder, v *Derived) { v.Name = d.name() }},
	{"value", func(d *decoder, v *Derived) { object(d, &v.Value, valueFields) }},
	{"div", func(d *decoder, v *Derived) { v.Div = d.int() }},
	{"minus", func(d *decoder, v *Derived) { v.Minus = d.name() }},
}

var componentFields = []field[Component]{
	{"name", func(d *decoder, v *Component) { v.Name = d.name() }},
	{"kind", func(d *decoder, v *Component) { v.Kind = d.name() }},
	{"max", func(d *decoder, v *Component) { object(d, &v.Max, valueFields) }},
}

var condFields = []field[Cond]{
	{"component", func(d *decoder, v *Cond) { v.Component = d.name() }},
	{"op", func(d *decoder, v *Cond) { v.Op = d.name() }},
	{"value", func(d *decoder, v *Cond) { object(d, &v.Value, valueFields) }},
}

var assignFields = []field[Assign]{
	{"component", func(d *decoder, v *Assign) { v.Component = d.name() }},
	{"set", func(d *decoder, v *Assign) { v.Set = optional(d, valueFields) }},
	{"add", func(d *decoder, v *Assign) { v.Add = d.int() }},
}

var ruleFields = []field[Rule]{
	{"message", func(d *decoder, v *Rule) { v.Message = d.name() }},
	{"when", func(d *decoder, v *Rule) { v.When = d.when() }},
	{"set", func(d *decoder, v *Rule) {
		v.Set = carve(d, &d.sets, func(d *decoder, a *Assign) { object(d, a, assignFields) })
	}},
	{"actions", func(d *decoder, v *Rule) { v.Actions = d.texts() }},
	{"annotations", func(d *decoder, v *Rule) { v.Annotations = d.texts() }},
	{"finish", func(d *decoder, v *Rule) { v.Finish = d.bool() }},
}

var describeFields = []field[DescribeRule]{
	{"when", func(d *decoder, v *DescribeRule) { v.When = d.when() }},
	{"text", func(d *decoder, v *DescribeRule) { v.Text = string(d.text()) }},
}

var labelFields = []field[LabelRule]{
	{"when", func(d *decoder, v *LabelRule) { v.When = d.when() }},
	{"label", func(d *decoder, v *LabelRule) { v.Label = string(d.text()) }},
}

var guardFields = []field[GuardRule]{
	{"message", func(d *decoder, v *GuardRule) { v.Message = d.name() }},
	{"component", func(d *decoder, v *GuardRule) { v.Component = d.name() }},
}

var varOpFields = []field[VarOpRule]{
	{"message", func(d *decoder, v *VarOpRule) { v.Message = d.name() }},
	{"component", func(d *decoder, v *VarOpRule) { v.Component = d.name() }},
	{"delta", func(d *decoder, v *VarOpRule) { v.Delta = d.int() }},
}

var symbolFields = []field[SymbolRule]{
	{"value", func(d *decoder, v *SymbolRule) { object(d, &v.Value, valueFields) }},
	{"text", func(d *decoder, v *SymbolRule) { v.Text = string(d.text()) }},
}

var abstractionFields = []field[Abstraction]{
	{"labels", func(d *decoder, v *Abstraction) { v.Labels = objects(d, &d.labels, labelFields) }},
	{"guards", func(d *decoder, v *Abstraction) { v.Guards = objects(d, &d.guards, guardFields) }},
	{"ops", func(d *decoder, v *Abstraction) { v.Ops = objects(d, &d.ops, varOpFields) }},
	{"symbols", func(d *decoder, v *Abstraction) { v.Symbols = objects(d, &d.symbols, symbolFields) }},
}
