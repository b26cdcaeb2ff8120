// Package tuple implements the data model of generative communication:
// tuples (ordered collections of typed fields) and templates (anti-tuples,
// patterns with actual and formal fields) together with the matching rules
// defined by Linda and adopted by Tiamat.
//
// A Tuple contains only actual (valued) fields. A Template may additionally
// contain formals: typed wildcards that match any value of that type, and
// the untyped wildcard Any that matches any field at all.
//
// Tuples are immutable once constructed; all accessors return copies of
// reference-typed contents so callers cannot alias internal state.
package tuple

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Field.
type Kind uint8

// The set of field kinds. KindAny is only legal inside templates.
const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // string
	KindBool         // bool
	KindBytes        // []byte
	KindTuple        // nested Tuple
	KindAny          // template wildcard matching any field
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	case KindTuple:
		return "tuple"
	case KindAny:
		return "any"
	default:
		return "invalid"
	}
}

// Errors reported by the tuple package.
var (
	// ErrFieldIndex reports an out-of-range field index.
	ErrFieldIndex = errors.New("tuple: field index out of range")
	// ErrFieldKind reports an access with the wrong typed accessor.
	ErrFieldKind = errors.New("tuple: field has different kind")
	// ErrFormalInTuple reports a formal field used to build a Tuple.
	ErrFormalInTuple = errors.New("tuple: tuples may not contain formal fields")
)

// Field is one slot of a tuple or template. The zero Field is invalid.
type Field struct {
	kind   Kind
	formal bool // true for typed wildcards and Any

	i int64
	f float64
	s string // string values
	b []byte
	t []Field // nested tuple fields
}

// Int returns an actual integer field.
func Int(v int64) Field { return Field{kind: KindInt, i: v} }

// Float returns an actual floating-point field.
func Float(v float64) Field { return Field{kind: KindFloat, f: v} }

// String returns an actual string field.
func String(v string) Field { return Field{kind: KindString, s: v} }

// Bool returns an actual boolean field.
func Bool(v bool) Field {
	f := Field{kind: KindBool}
	if v {
		f.i = 1
	}
	return f
}

// Bytes returns an actual byte-slice field. The slice is copied.
func Bytes(v []byte) Field {
	b := make([]byte, len(v))
	copy(b, v)
	return Field{kind: KindBytes, b: b}
}

// Nested returns an actual field holding a nested tuple.
func Nested(t Tuple) Field { return Field{kind: KindTuple, t: t.fields} }

// FormalInt returns a formal matching any integer.
func FormalInt() Field { return Field{kind: KindInt, formal: true} }

// FormalFloat returns a formal matching any float.
func FormalFloat() Field { return Field{kind: KindFloat, formal: true} }

// FormalString returns a formal matching any string.
func FormalString() Field { return Field{kind: KindString, formal: true} }

// FormalBool returns a formal matching any boolean.
func FormalBool() Field { return Field{kind: KindBool, formal: true} }

// FormalBytes returns a formal matching any byte slice.
func FormalBytes() Field { return Field{kind: KindBytes, formal: true} }

// FormalTuple returns a formal matching any nested tuple.
func FormalTuple() Field { return Field{kind: KindTuple, formal: true} }

// Any returns the untyped wildcard, matching any field of any kind.
func Any() Field { return Field{kind: KindAny, formal: true} }

// Kind reports the field's kind.
func (f Field) Kind() Kind { return f.kind }

// Formal reports whether the field is a wildcard (typed or untyped).
func (f Field) Formal() bool { return f.formal }

// StringValue returns the field's string value; ok is false for formals
// and non-string fields. Index structures use it to key on leading tags.
func (f Field) StringValue() (value string, ok bool) {
	if f.formal || f.kind != KindString {
		return "", false
	}
	return f.s, true
}

// IntValue returns the field's integer value; ok is false for formals
// and non-integer fields.
func (f Field) IntValue() (value int64, ok bool) {
	if f.formal || f.kind != KindInt {
		return 0, false
	}
	return f.i, true
}

// equalField reports deep equality of two actual fields. Fields are
// passed by pointer: a Field is large, and matching is the store's inner
// loop.
func equalField(a, b *Field) bool {
	if a.kind != b.kind || a.formal != b.formal {
		return false
	}
	if a.formal {
		return true
	}
	switch a.kind {
	case KindInt, KindBool:
		return a.i == b.i
	case KindFloat:
		// NaN compares equal to itself so matching is reflexive.
		if math.IsNaN(a.f) && math.IsNaN(b.f) {
			return true
		}
		return a.f == b.f
	case KindString:
		return a.s == b.s
	case KindBytes:
		if len(a.b) != len(b.b) {
			return false
		}
		for i := range a.b {
			if a.b[i] != b.b[i] {
				return false
			}
		}
		return true
	case KindTuple:
		if len(a.t) != len(b.t) {
			return false
		}
		for i := range a.t {
			if !equalField(&a.t[i], &b.t[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// matchField reports whether template field p matches actual field v.
func matchField(p, v *Field) bool {
	if v.formal {
		return false // tuples never contain formals; defensive
	}
	if p.kind == KindAny {
		return true
	}
	if p.kind != v.kind {
		return false
	}
	if p.formal {
		return true
	}
	return equalField(p, v)
}

func (f Field) goString(b *strings.Builder) {
	if f.kind == KindAny {
		b.WriteString("?any")
		return
	}
	if f.formal {
		b.WriteString("?")
		b.WriteString(f.kind.String())
		return
	}
	switch f.kind {
	case KindInt:
		b.WriteString(strconv.FormatInt(f.i, 10))
	case KindFloat:
		b.WriteString(strconv.FormatFloat(f.f, 'g', -1, 64))
	case KindString:
		b.WriteString(strconv.Quote(f.s))
	case KindBool:
		b.WriteString(strconv.FormatBool(f.i != 0))
	case KindBytes:
		if len(f.b) > 16 {
			fmt.Fprintf(b, "0x%x…(%d bytes)", f.b[:16], len(f.b))
		} else {
			fmt.Fprintf(b, "0x%x", f.b)
		}
	case KindTuple:
		Tuple{fields: f.t}.writeTo(b)
	default:
		b.WriteString("<invalid>")
	}
}

// Tuple is an immutable ordered collection of actual fields. The zero Tuple
// is the empty tuple (arity 0).
type Tuple struct {
	fields []Field
}

// Make constructs a tuple from actual fields. It returns ErrFormalInTuple
// (wrapped with the offending index) if any field is formal or invalid.
func Make(fields ...Field) (Tuple, error) {
	for i, f := range fields {
		if f.formal || f.kind == KindAny {
			return Tuple{}, fmt.Errorf("field %d: %w", i, ErrFormalInTuple)
		}
		if f.kind == KindInvalid || f.kind > KindAny {
			return Tuple{}, fmt.Errorf("field %d: invalid kind %d", i, f.kind)
		}
	}
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return Tuple{fields: fs}, nil
}

// T constructs a tuple from actual fields, panicking on formals. It is the
// convenience constructor for literals in application code and tests.
func T(fields ...Field) Tuple {
	t, err := Make(fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t.fields) }

// Field returns the i'th field.
func (t Tuple) Field(i int) (Field, error) {
	if i < 0 || i >= len(t.fields) {
		return Field{}, fmt.Errorf("index %d of arity %d: %w", i, len(t.fields), ErrFieldIndex)
	}
	f := t.fields[i]
	// Copy reference-typed contents so callers cannot alias internals.
	if f.kind == KindBytes {
		b := make([]byte, len(f.b))
		copy(b, f.b)
		f.b = b
	}
	return f, nil
}

// IntAt returns the integer value of field i.
func (t Tuple) IntAt(i int) (int64, error) {
	f, err := t.at(i, KindInt)
	return f.i, err
}

// FloatAt returns the float value of field i.
func (t Tuple) FloatAt(i int) (float64, error) {
	f, err := t.at(i, KindFloat)
	return f.f, err
}

// StringAt returns the string value of field i.
func (t Tuple) StringAt(i int) (string, error) {
	f, err := t.at(i, KindString)
	return f.s, err
}

// BoolAt returns the boolean value of field i.
func (t Tuple) BoolAt(i int) (bool, error) {
	f, err := t.at(i, KindBool)
	return f.i != 0, err
}

// BytesAt returns a copy of the byte-slice value of field i.
func (t Tuple) BytesAt(i int) ([]byte, error) {
	f, err := t.at(i, KindBytes)
	if err != nil {
		return nil, err
	}
	b := make([]byte, len(f.b))
	copy(b, f.b)
	return b, nil
}

// TupleAt returns the nested tuple value of field i.
func (t Tuple) TupleAt(i int) (Tuple, error) {
	f, err := t.at(i, KindTuple)
	return Tuple{fields: f.t}, err
}

func (t Tuple) at(i int, k Kind) (Field, error) {
	if i < 0 || i >= len(t.fields) {
		return Field{}, fmt.Errorf("index %d of arity %d: %w", i, len(t.fields), ErrFieldIndex)
	}
	f := t.fields[i]
	if f.kind != k {
		return Field{}, fmt.Errorf("field %d is %s, want %s: %w", i, f.kind, k, ErrFieldKind)
	}
	return f, nil
}

// copyFieldsDeep returns a deep copy of fields: byte slices are
// duplicated and nested tuples copied recursively, so the result shares
// no memory with the original (or with any decode buffer it aliases).
func copyFieldsDeep(fields []Field) []Field {
	if fields == nil {
		return nil
	}
	out := make([]Field, len(fields))
	for i, f := range fields {
		switch f.kind {
		case KindBytes:
			if f.b != nil {
				b := make([]byte, len(f.b))
				copy(b, f.b)
				f.b = b
			}
		case KindTuple:
			f.t = copyFieldsDeep(f.t)
		}
		out[i] = f
	}
	return out
}

// Copy returns a deep copy of the tuple that shares no memory with the
// original. It is the escape hatch for values produced by the no-copy
// decoders (DecodeTupleNoCopy), whose bytes fields alias the decode
// buffer: call Copy before retaining such a tuple past the buffer's
// lifetime.
func (t Tuple) Copy() Tuple {
	return Tuple{fields: copyFieldsDeep(t.fields)}
}

// Copy returns a deep copy of the template that shares no memory with
// the original; see Tuple.Copy.
func (p Template) Copy() Template {
	return Template{fields: copyFieldsDeep(p.fields)}
}

// Equal reports deep equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t.fields) != len(o.fields) {
		return false
	}
	for i := range t.fields {
		if !equalField(&t.fields[i], &o.fields[i]) {
			return false
		}
	}
	return true
}

// Size returns the approximate in-memory and wire footprint of the tuple in
// bytes. It is used by the lease manager for storage accounting.
func (t Tuple) Size() int64 {
	var n int64
	for _, f := range t.fields {
		n += fieldSize(f)
	}
	return n + 8 // header overhead
}

func fieldSize(f Field) int64 {
	switch f.kind {
	case KindInt, KindFloat, KindBool:
		return 9
	case KindString:
		return int64(len(f.s)) + 5
	case KindBytes:
		return int64(len(f.b)) + 5
	case KindTuple:
		var n int64 = 5
		for _, sub := range f.t {
			n += fieldSize(sub)
		}
		return n
	default:
		return 1
	}
}

// String renders the tuple like ("req", 42, true).
func (t Tuple) String() string {
	var b strings.Builder
	t.writeTo(&b)
	return b.String()
}

func (t Tuple) writeTo(b *strings.Builder) {
	b.WriteByte('(')
	for i, f := range t.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		f.goString(b)
	}
	b.WriteByte(')')
}

// Template is a pattern (anti-tuple) used by rd/rdp/in/inp to select
// tuples. It may mix actual fields (matched by equality) with formals
// (matched by type) and Any wildcards.
type Template struct {
	fields []Field
}

// Tmpl constructs a template from fields.
func Tmpl(fields ...Field) Template {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return Template{fields: fs}
}

// TemplateOf returns the template that matches exactly the given tuple.
func TemplateOf(t Tuple) Template {
	fs := make([]Field, len(t.fields))
	copy(fs, t.fields)
	return Template{fields: fs}
}

// Arity returns the number of fields in the template.
func (p Template) Arity() int { return len(p.fields) }

// Field returns the i'th template field.
func (p Template) Field(i int) (Field, error) {
	if i < 0 || i >= len(p.fields) {
		return Field{}, fmt.Errorf("index %d of arity %d: %w", i, len(p.fields), ErrFieldIndex)
	}
	return p.fields[i], nil
}

// Matches reports whether the template matches the tuple: equal arity, and
// every template field matches the corresponding tuple field (actuals by
// deep equality, formals by kind, Any unconditionally).
func (p Template) Matches(t Tuple) bool {
	if len(p.fields) != len(t.fields) {
		return false
	}
	for i := range p.fields {
		if !matchField(&p.fields[i], &t.fields[i]) {
			return false
		}
	}
	return true
}

// Wildcard reports whether the template contains any formal field.
func (p Template) Wildcard() bool {
	for _, f := range p.fields {
		if f.formal {
			return true
		}
	}
	return false
}

// String renders the template like ("req", ?int, ?any).
func (p Template) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range p.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		f.goString(&b)
	}
	b.WriteByte(')')
	return b.String()
}

// Hash returns a 64-bit FNV-1a hash of the tuple's contents. Equal tuples
// hash equally; it is used for indexing and deduplication.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset)
	for i := range t.fields {
		h = hashField(h, &t.fields[i])
	}
	return h
}

// FieldHash returns the hash of field i; ok is false when i is out of
// range. Fields that are equal under matching hash equally, so an index
// may key on it. It allocates nothing, unlike Field, which copies bytes.
func (t Tuple) FieldHash(i int) (h uint64, ok bool) {
	if i < 0 || i >= len(t.fields) {
		return 0, false
	}
	return hashField(fnvOffset, &t.fields[i]), true
}

// FieldHash returns the hash of actual field i; ok is false for a formal
// or Any field and when i is out of range. An actual field hashes like
// every tuple field it matches (see Tuple.FieldHash).
func (p Template) FieldHash(i int) (h uint64, ok bool) {
	if i < 0 || i >= len(p.fields) || p.fields[i].formal {
		return 0, false
	}
	return hashField(fnvOffset, &p.fields[i]), true
}

const fnvOffset = 14695981039346656037

func hashField(h uint64, f *Field) uint64 {
	const prime = 1099511628211
	h ^= uint64(f.kind)
	h *= prime
	switch f.kind {
	case KindInt, KindBool:
		h ^= uint64(f.i)
		h *= prime
	case KindFloat:
		// Canonicalise what equalField treats as equal: -0 == +0, and
		// every NaN equals every other.
		v := f.f
		switch {
		case v == 0:
			v = 0
		case math.IsNaN(v):
			v = math.NaN()
		}
		h ^= math.Float64bits(v)
		h *= prime
	case KindString:
		for i := 0; i < len(f.s); i++ {
			h ^= uint64(f.s[i])
			h *= prime
		}
	case KindBytes:
		for _, b := range f.b {
			h ^= uint64(b)
			h *= prime
		}
	case KindTuple:
		for i := range f.t {
			h = hashField(h, &f.t[i])
		}
	}
	return h
}
