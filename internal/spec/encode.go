package spec

import (
	"strconv"
	"sync"
	"unicode/utf8"
)

// The canonical form of a document is the bytes encoding/json writes for
// it: fields in struct order, omitempty honoured, a nil slice that is not
// omitempty written as null, and strings escaped as encoding/json escapes
// them — '<', '>' and '&' as \u003c, \u003e and \u0026, U+2028 and U+2029
// as \u2028 and \u2029, invalid UTF-8 as \ufffd. Those bytes are pinned
// into every spec model's fingerprint, so the encoder below writes them
// without reflection, and the tests hold it to encoding/json.

// canonBufs pools the buffers canonical encodes into. A buffer that grew
// past maxPooledCanon is left to the collector rather than kept.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledCanon = 1 << 20

// canonical returns the canonical form of d, encoded into a pooled buffer
// of at least size bytes, and of 4 KiB when size foresees nothing. A buffer
// that falls short is replaced once at that size rather than grown from
// what the pool held.
func canonical(d *Doc, size int) string {
	bp := canonBufs.Get().(*[]byte)
	if size = max(size, 4<<10); cap(*bp) < size {
		*bp = make([]byte, 0, size)
	}
	buf := appendDoc((*bp)[:0], d)
	out := string(buf)
	if cap(buf) <= maxPooledCanon {
		*bp = buf
		canonBufs.Put(bp)
	}
	return out
}

// member appends an object member's key, after a comma unless the member is
// the object's first: no value ends in '{', so the byte before is '{'
// exactly when nothing has been written into the object yet.
func member(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// strField appends a string member, omitted when empty if omitEmpty.
func strField(dst []byte, name, s string, omitEmpty bool) []byte {
	if omitEmpty && s == "" {
		return dst
	}
	return appendString(member(dst, name), s)
}

// intField appends an integer member, omitted when zero if omitEmpty.
func intField(dst []byte, name string, n int, omitEmpty bool) []byte {
	if omitEmpty && n == 0 {
		return dst
	}
	return strconv.AppendInt(member(dst, name), int64(n), 10)
}

// listField appends a slice member with each element written by elem:
// omitted when empty if omitEmpty, null when nil otherwise.
func listField[T any](dst []byte, name string, list []T, omitEmpty bool, elem func([]byte, *T) []byte) []byte {
	if omitEmpty && len(list) == 0 {
		return dst
	}
	dst = member(dst, name)
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, &list[i])
	}
	return append(dst, ']')
}

func appendStringElem(dst []byte, s *string) []byte { return appendString(dst, *s) }

func appendIntElem(dst []byte, n *int) []byte { return strconv.AppendInt(dst, int64(*n), 10) }

func appendValue(dst []byte, v *Value) []byte {
	dst = append(dst, '{')
	if v.Param {
		dst = append(member(dst, "param"), "true"...)
	}
	dst = strField(dst, "derived", v.Derived, true)
	dst = intField(dst, "offset", v.Offset, true)
	return append(dst, '}')
}

func appendDerived(dst []byte, d *Derived) []byte {
	dst = strField(append(dst, '{'), "name", d.Name, false)
	dst = appendValue(member(dst, "value"), &d.Value)
	dst = intField(dst, "div", d.Div, true)
	dst = strField(dst, "minus", d.Minus, true)
	return append(dst, '}')
}

func appendComponent(dst []byte, c *Component) []byte {
	dst = strField(append(dst, '{'), "name", c.Name, false)
	dst = strField(dst, "kind", c.Kind, false)
	dst = appendValue(member(dst, "max"), &c.Max)
	return append(dst, '}')
}

func appendCond(dst []byte, c *Cond) []byte {
	dst = strField(append(dst, '{'), "component", c.Component, false)
	dst = strField(dst, "op", c.Op, false)
	dst = appendValue(member(dst, "value"), &c.Value)
	return append(dst, '}')
}

func appendAssign(dst []byte, a *Assign) []byte {
	dst = strField(append(dst, '{'), "component", a.Component, false)
	if a.Set != nil {
		dst = appendValue(member(dst, "set"), a.Set)
	}
	dst = intField(dst, "add", a.Add, true)
	return append(dst, '}')
}

func appendRule(dst []byte, r *Rule) []byte {
	dst = strField(append(dst, '{'), "message", r.Message, false)
	dst = listField(dst, "when", r.When, true, appendCond)
	dst = listField(dst, "set", r.Set, true, appendAssign)
	dst = listField(dst, "actions", r.Actions, true, appendStringElem)
	dst = listField(dst, "annotations", r.Annotations, true, appendStringElem)
	if r.Finish {
		dst = append(member(dst, "finish"), "true"...)
	}
	return append(dst, '}')
}

func appendDescribeRule(dst []byte, r *DescribeRule) []byte {
	dst = listField(append(dst, '{'), "when", r.When, true, appendCond)
	dst = strField(dst, "text", r.Text, false)
	return append(dst, '}')
}

func appendLabelRule(dst []byte, l *LabelRule) []byte {
	dst = listField(append(dst, '{'), "when", l.When, true, appendCond)
	dst = strField(dst, "label", l.Label, false)
	return append(dst, '}')
}

func appendGuardRule(dst []byte, g *GuardRule) []byte {
	dst = strField(append(dst, '{'), "message", g.Message, false)
	dst = strField(dst, "component", g.Component, false)
	return append(dst, '}')
}

func appendVarOpRule(dst []byte, op *VarOpRule) []byte {
	dst = strField(append(dst, '{'), "message", op.Message, false)
	dst = strField(dst, "component", op.Component, false)
	dst = intField(dst, "delta", op.Delta, false)
	return append(dst, '}')
}

func appendSymbolRule(dst []byte, s *SymbolRule) []byte {
	dst = appendValue(member(append(dst, '{'), "value"), &s.Value)
	dst = strField(dst, "text", s.Text, false)
	return append(dst, '}')
}

func appendAbstraction(dst []byte, a *Abstraction) []byte {
	dst = listField(append(dst, '{'), "labels", a.Labels, false, appendLabelRule)
	dst = listField(dst, "guards", a.Guards, true, appendGuardRule)
	dst = listField(dst, "ops", a.Ops, true, appendVarOpRule)
	dst = listField(dst, "symbols", a.Symbols, true, appendSymbolRule)
	return append(dst, '}')
}

// appendDoc appends the canonical form of d.
func appendDoc(dst []byte, d *Doc) []byte {
	dst = strField(append(dst, '{'), "name", d.Name, false)
	dst = strField(dst, "model_name", d.ModelName, true)
	dst = strField(dst, "description", d.Description, true)
	dst = strField(dst, "param_name", d.ParamName, true)
	dst = intField(dst, "default_param", d.DefaultParam, true)
	dst = intField(dst, "min_param", d.MinParam, true)
	dst = listField(dst, "sweep_params", d.SweepParams, true, appendIntElem)
	dst = strField(dst, "vocabulary", d.Vocabulary, true)
	dst = listField(dst, "derived", d.Derived, true, appendDerived)
	if d.FaultTolerance != nil {
		dst = appendValue(member(dst, "fault_tolerance"), d.FaultTolerance)
	}
	dst = listField(dst, "components", d.Components, false, appendComponent)
	dst = listField(dst, "messages", d.Messages, false, appendStringElem)
	dst = listField(dst, "start", d.Start, true, appendValue)
	dst = listField(dst, "rules", d.Rules, false, appendRule)
	dst = listField(dst, "describe", d.Describe, true, appendDescribeRule)
	if d.Abstraction != nil {
		dst = appendAbstraction(member(dst, "abstraction"), d.Abstraction)
	}
	return append(dst, '}')
}

// htmlSafe marks the ASCII bytes a JSON string holds as they are:
// everything from space up except '"', '\\' and the HTML-significant '<',
// '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
