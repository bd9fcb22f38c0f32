package spec

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// decoder reads a Doc out of its JSON text in one pass. It knows the
// schema — a table of fields per struct, at the end of this file — so it
// reflects on nothing and scans nothing twice. It holds the text to the
// strict reading: an object names each key once and in its exact case, a
// string is valid UTF-8, an integer has no fraction or exponent; null is an
// absent value. The first error sticks and moves the cursor to the end.
type decoder struct {
	data  []byte
	pos   int
	err   error
	buf   []byte            // the string being unescaped
	names map[string]string // one copy of each name the document repeats
	// Elements wait here until their array closes and its length is known.
	conds []Cond
	sets  []Assign
	strs  []string
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
	rest := d.data[d.pos:]
	for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\n' || rest[0] == '\t' || rest[0] == '\r') {
		rest = rest[1:]
	}
	d.pos = len(d.data) - len(rest)
	return d.at(d.pos)
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
// its comma, or over the closing byte: then there is no more.
func (d *decoder) more(closing byte, first bool) bool {
	switch c := d.peek(); {
	case c == closing:
		d.pos++
		return false
	case first:
	case c == ',':
		d.pos++
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
// been used in this object before.
func object[T any](d *decoder, v *T, fields []field[T]) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for first := true; d.more('}', first); first = false {
		d.peek()
		at := d.pos
		name := d.text()
		k := slices.IndexFunc(fields, func(f field[T]) bool { return f.name == string(name) })
		switch {
		case d.err != nil:
		case k < 0:
			d.fail(at, "unknown field %q", name)
		case seen&(1<<k) != 0:
			d.fail(at, "duplicate key %q", name)
		case d.peek() != ':':
			d.fail(d.pos, "expected ':' after key %q", name)
		default:
			seen |= 1 << k
			d.pos++
			fields[k].read(d, v)
		}
	}
}

// list reads an array through scratch and returns it at its exact size:
// nil for null, empty and not nil for []. An element is read where it lies
// in scratch, so elem must not use that scratch: no list nests in its kind.
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
	*scratch = (*scratch)[:mark]
	return out
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

// text returns the string at the cursor, unescaped: a slice of the
// document while it holds no escape, d.buf from the first one on. Half a
// surrogate pair, U+FFFD to encoding/json, is an escape like \q: an error.
func (d *decoder) text() []byte {
	if !d.begin('"') {
		return nil
	}
	start, escaped := d.pos, false
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
	n, err := strconv.ParseUint(string(d.data[i+2:i+6]), 16, 16)
	return rune(n), err == nil
}

// name reads a string the document repeats — a component, an operator, a
// message — and returns the one copy of it.
func (d *decoder) name() string {
	b := d.text()
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	return s
}

// int reads an integer written as strconv prints it: digits and a minus.
func (d *decoder) int() int {
	if d.peek() == 'n' && d.literal("null") {
		return 0
	}
	start := d.pos
	for strings.IndexByte("+-.0123456789Ee", d.at(d.pos)) >= 0 {
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
	return list(d, &d.strs, func(d *decoder, s *string) { *s = string(d.text()) })
}

var docFields = []field[Doc]{
	{"name", func(d *decoder, v *Doc) { v.Name = string(d.text()) }},
	{"model_name", func(d *decoder, v *Doc) { v.ModelName = string(d.text()) }},
	{"description", func(d *decoder, v *Doc) { v.Description = string(d.text()) }},
	{"param_name", func(d *decoder, v *Doc) { v.ParamName = string(d.text()) }},
	{"default_param", func(d *decoder, v *Doc) { v.DefaultParam = d.int() }},
	{"min_param", func(d *decoder, v *Doc) { v.MinParam = d.int() }},
	{"sweep_params", func(d *decoder, v *Doc) {
		v.SweepParams = list(d, new([]int), func(d *decoder, n *int) { *n = d.int() })
	}},
	{"vocabulary", func(d *decoder, v *Doc) { v.Vocabulary = string(d.text()) }},
	{"derived", func(d *decoder, v *Doc) { v.Derived = objects(d, new([]Derived), derivedFields) }},
	{"fault_tolerance", func(d *decoder, v *Doc) { v.FaultTolerance = optional(d, valueFields) }},
	{"components", func(d *decoder, v *Doc) { v.Components = objects(d, new([]Component), componentFields) }},
	{"messages", func(d *decoder, v *Doc) {
		v.Messages = list(d, &d.strs, func(d *decoder, s *string) { *s = d.name() })
	}},
	{"start", func(d *decoder, v *Doc) { v.Start = objects(d, new([]Value), valueFields) }},
	{"rules", func(d *decoder, v *Doc) { v.Rules = objects(d, new([]Rule), ruleFields) }},
	{"describe", func(d *decoder, v *Doc) { v.Describe = objects(d, new([]DescribeRule), describeFields) }},
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
	{"when", func(d *decoder, v *Rule) { v.When = objects(d, &d.conds, condFields) }},
	{"set", func(d *decoder, v *Rule) { v.Set = objects(d, &d.sets, assignFields) }},
	{"actions", func(d *decoder, v *Rule) { v.Actions = d.texts() }},
	{"annotations", func(d *decoder, v *Rule) { v.Annotations = d.texts() }},
	{"finish", func(d *decoder, v *Rule) { v.Finish = d.bool() }},
}

var describeFields = []field[DescribeRule]{
	{"when", func(d *decoder, v *DescribeRule) { v.When = objects(d, &d.conds, condFields) }},
	{"text", func(d *decoder, v *DescribeRule) { v.Text = string(d.text()) }},
}

var labelFields = []field[LabelRule]{
	{"when", func(d *decoder, v *LabelRule) { v.When = objects(d, &d.conds, condFields) }},
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
	{"labels", func(d *decoder, v *Abstraction) { v.Labels = objects(d, new([]LabelRule), labelFields) }},
	{"guards", func(d *decoder, v *Abstraction) { v.Guards = objects(d, new([]GuardRule), guardFields) }},
	{"ops", func(d *decoder, v *Abstraction) { v.Ops = objects(d, new([]VarOpRule), varOpFields) }},
	{"symbols", func(d *decoder, v *Abstraction) { v.Symbols = objects(d, new([]SymbolRule), symbolFields) }},
}
