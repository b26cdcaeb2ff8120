package tuple

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestMakeRejectsFormals(t *testing.T) {
	cases := []Field{FormalInt(), FormalFloat(), FormalString(), FormalBool(), FormalBytes(), FormalTuple(), Any()}
	for _, f := range cases {
		if _, err := Make(String("x"), f); !errors.Is(err, ErrFormalInTuple) {
			t.Errorf("Make with %v: err = %v, want ErrFormalInTuple", f.Kind(), err)
		}
	}
}

func TestMakeRejectsInvalidKind(t *testing.T) {
	if _, err := Make(Field{}); err == nil {
		t.Fatal("Make with zero Field succeeded, want error")
	}
}

func TestTPanicsOnFormal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("T(Any()) did not panic")
		}
	}()
	T(Any())
}

func TestArityAndAccessors(t *testing.T) {
	inner := T(Int(1), Int(2))
	tp := T(String("req"), Int(42), Float(2.5), Bool(true), Bytes([]byte{9, 8}), Nested(inner))
	if got := tp.Arity(); got != 6 {
		t.Fatalf("Arity = %d, want 6", got)
	}
	if s, err := tp.StringAt(0); err != nil || s != "req" {
		t.Errorf("StringAt(0) = %q, %v", s, err)
	}
	if v, err := tp.IntAt(1); err != nil || v != 42 {
		t.Errorf("IntAt(1) = %d, %v", v, err)
	}
	if f, err := tp.FloatAt(2); err != nil || f != 2.5 {
		t.Errorf("FloatAt(2) = %g, %v", f, err)
	}
	if b, err := tp.BoolAt(3); err != nil || !b {
		t.Errorf("BoolAt(3) = %v, %v", b, err)
	}
	if bs, err := tp.BytesAt(4); err != nil || len(bs) != 2 || bs[0] != 9 {
		t.Errorf("BytesAt(4) = %v, %v", bs, err)
	}
	if nt, err := tp.TupleAt(5); err != nil || !nt.Equal(inner) {
		t.Errorf("TupleAt(5) = %v, %v", nt, err)
	}
}

func TestAccessorKindErrors(t *testing.T) {
	tp := T(String("x"))
	if _, err := tp.IntAt(0); !errors.Is(err, ErrFieldKind) {
		t.Errorf("IntAt on string: err = %v, want ErrFieldKind", err)
	}
	if _, err := tp.IntAt(5); !errors.Is(err, ErrFieldIndex) {
		t.Errorf("IntAt(5): err = %v, want ErrFieldIndex", err)
	}
	if _, err := tp.IntAt(-1); !errors.Is(err, ErrFieldIndex) {
		t.Errorf("IntAt(-1): err = %v, want ErrFieldIndex", err)
	}
	if _, err := tp.Field(1); !errors.Is(err, ErrFieldIndex) {
		t.Errorf("Field(1): err = %v, want ErrFieldIndex", err)
	}
}

func TestBytesAreCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	tp := T(Bytes(src))
	src[0] = 99
	got, err := tp.BytesAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("constructor aliased caller slice: got[0] = %d", got[0])
	}
	got[1] = 77
	again, _ := tp.BytesAt(0)
	if again[1] != 2 {
		t.Errorf("accessor aliased internal slice: again[1] = %d", again[1])
	}
	f, err := tp.Field(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
}

func TestEqual(t *testing.T) {
	a := T(String("k"), Int(1), Nested(T(Bool(false))))
	b := T(String("k"), Int(1), Nested(T(Bool(false))))
	c := T(String("k"), Int(2), Nested(T(Bool(false))))
	d := T(String("k"), Int(1))
	if !a.Equal(b) {
		t.Error("a != b, want equal")
	}
	if a.Equal(c) {
		t.Error("a == c, want unequal")
	}
	if a.Equal(d) {
		t.Error("a == d (different arity), want unequal")
	}
	if !(Tuple{}).Equal(T()) {
		t.Error("zero tuple != empty tuple")
	}
}

func TestEqualNaN(t *testing.T) {
	a := T(Float(math.NaN()))
	b := T(Float(math.NaN()))
	if !a.Equal(b) {
		t.Error("NaN tuples should compare equal for matching reflexivity")
	}
}

func TestMatching(t *testing.T) {
	tp := T(String("req"), Int(42), Bool(true))
	cases := []struct {
		name string
		p    Template
		want bool
	}{
		{"exact", Tmpl(String("req"), Int(42), Bool(true)), true},
		{"formals", Tmpl(FormalString(), FormalInt(), FormalBool()), true},
		{"any", Tmpl(Any(), Any(), Any()), true},
		{"mixed", Tmpl(String("req"), FormalInt(), Any()), true},
		{"wrong value", Tmpl(String("resp"), FormalInt(), Any()), false},
		{"wrong kind formal", Tmpl(FormalInt(), FormalInt(), FormalBool()), false},
		{"short arity", Tmpl(String("req"), Int(42)), false},
		{"long arity", Tmpl(String("req"), Int(42), Bool(true), Any()), false},
	}
	for _, c := range cases {
		if got := c.p.Matches(tp); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMatchNested(t *testing.T) {
	tp := T(Nested(T(String("a"), Int(1))))
	if !Tmpl(FormalTuple()).Matches(tp) {
		t.Error("FormalTuple should match nested tuple")
	}
	if !Tmpl(Nested(T(String("a"), Int(1)))).Matches(tp) {
		t.Error("exact nested should match")
	}
	if Tmpl(Nested(T(String("a"), Int(2)))).Matches(tp) {
		t.Error("different nested should not match")
	}
}

func TestTemplateOf(t *testing.T) {
	tp := T(String("x"), Int(7))
	p := TemplateOf(tp)
	if !p.Matches(tp) {
		t.Error("TemplateOf(t) should match t")
	}
	if p.Matches(T(String("x"), Int(8))) {
		t.Error("TemplateOf(t) should not match different tuple")
	}
	if p.Wildcard() {
		t.Error("TemplateOf should contain no formals")
	}
	if !Tmpl(Any()).Wildcard() {
		t.Error("Tmpl(Any()) should report Wildcard")
	}
}

func TestString(t *testing.T) {
	tp := T(String("a b"), Int(-3), Float(1.5), Bool(true), Bytes([]byte{0xab}), Nested(T(Int(9))))
	got := tp.String()
	want := `("a b", -3, 1.5, true, 0xab, (9))`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	p := Tmpl(FormalString(), Any(), Int(2))
	if ps := p.String(); ps != `(?string, ?any, 2)` {
		t.Errorf("template String() = %s", ps)
	}
	if !strings.Contains(Kind(200).String(), "invalid") {
		t.Error("unknown kind should render invalid")
	}
}

func TestHashEqualTuplesEqualHash(t *testing.T) {
	a := T(String("k"), Int(1), Float(2.5), Nested(T(Bool(true))))
	b := T(String("k"), Int(1), Float(2.5), Nested(T(Bool(true))))
	if a.Hash() != b.Hash() {
		t.Error("equal tuples should hash equal")
	}
	c := T(String("k"), Int(2), Float(2.5), Nested(T(Bool(true))))
	if a.Hash() == c.Hash() {
		t.Error("hash collision on trivially different tuples (suspicious)")
	}
	// Floats that compare equal must hash equal: ±0, and NaNs with
	// different payloads, at top level and nested.
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0000000000abc)
	for _, pair := range [][2]float64{{0, math.Copysign(0, -1)}, {nan1, nan2}} {
		x := T(Float(pair[0]), Nested(T(Float(pair[0]))))
		y := T(Float(pair[1]), Nested(T(Float(pair[1]))))
		if !x.Equal(y) || !TemplateOf(x).Matches(y) {
			t.Fatalf("%v and %v should be equal", x, y)
		}
		if x.Hash() != y.Hash() {
			t.Errorf("equal tuples %v and %v hash differently", x, y)
		}
		for i := 0; i < x.Arity(); i++ {
			hx, _ := x.FieldHash(i)
			hy, _ := y.FieldHash(i)
			hp, ok := TemplateOf(x).FieldHash(i)
			if hx != hy || !ok || hp != hy {
				t.Errorf("field %d of %v and %v hashes differently", i, x, y)
			}
		}
	}
}

func TestFieldHash(t *testing.T) {
	tp := T(String("k"), Bytes([]byte("key")), Int(7))
	p := Tmpl(String("k"), Bytes([]byte("key")), FormalInt(), Any())
	for i := 0; i < 2; i++ {
		ht, ok1 := tp.FieldHash(i)
		hp, ok2 := p.FieldHash(i)
		if !ok1 || !ok2 || ht != hp {
			t.Errorf("field %d: tuple %x/%v, template %x/%v", i, ht, ok1, hp, ok2)
		}
	}
	if _, ok := p.FieldHash(2); ok {
		t.Error("formal field has a key hash")
	}
	if _, ok := p.FieldHash(3); ok {
		t.Error("Any field has a key hash")
	}
	if _, ok := tp.FieldHash(3); ok {
		t.Error("out-of-range tuple field has a hash")
	}
	if _, ok := p.FieldHash(-1); ok {
		t.Error("negative template index has a hash")
	}
	// Kinds are part of the hash: Int(1) and Bool(true) share a payload.
	a, _ := T(Int(1)).FieldHash(0)
	b, _ := T(Bool(true)).FieldHash(0)
	if a == b {
		t.Error("int and bool with the same payload hash alike")
	}
	if n := testing.AllocsPerRun(100, func() { tp.FieldHash(1); p.FieldHash(1) }); n != 0 {
		t.Errorf("FieldHash allocates %v times", n)
	}
}

func TestSize(t *testing.T) {
	small := T(Int(1))
	big := T(Bytes(make([]byte, 1000)))
	if small.Size() >= big.Size() {
		t.Errorf("Size ordering wrong: small=%d big=%d", small.Size(), big.Size())
	}
	if small.Size() <= 0 {
		t.Error("Size must be positive")
	}
	nested := T(Nested(T(String("abc"))))
	if nested.Size() <= 0 {
		t.Error("nested Size must be positive")
	}
}
