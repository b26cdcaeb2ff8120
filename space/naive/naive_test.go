// Differential tests: the naive reference space and the optimised store
// must agree on observable behaviour under random operation sequences,
// and a Tiamat instance must run unchanged on either (paper §3.1.2).
package naive

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/transport/memnet"
	"tiamat/tuple"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func item(tag string, v int64) tuple.Tuple {
	return tuple.T(tuple.String(tag), tuple.Int(v))
}

func tmpl(tag string) tuple.Template {
	return tuple.Tmpl(tuple.String(tag), tuple.FormalInt())
}

func TestNaiveBasics(t *testing.T) {
	s := New(nil)
	defer s.Close()
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("empty space matched")
	}
	id, err := s.Out(item("a", 1), time.Time{})
	if err != nil || id == 0 {
		t.Fatal(err)
	}
	if got, ok := s.Rdp(tmpl("a")); !ok || !got.Equal(item("a", 1)) {
		t.Fatalf("rdp = %v %v", got, ok)
	}
	if s.Count() != 1 || s.Bytes() == 0 || len(s.Snapshot()) != 1 {
		t.Fatal("accounting wrong")
	}
	if got, ok := s.Inp(tmpl("a")); !ok || !got.Equal(item("a", 1)) {
		t.Fatalf("inp = %v %v", got, ok)
	}
	if s.Count() != 0 {
		t.Fatal("inp did not remove")
	}
}

func TestNaiveWaitAndHold(t *testing.T) {
	s := New(nil)
	defer s.Close()
	w := s.Wait(tmpl("a"), true)
	s.Out(item("a", 1), time.Time{})
	if got, ok := <-w.Chan(); !ok || !got.Equal(item("a", 1)) {
		t.Fatal("waiter not served")
	}
	if s.Count() != 0 {
		t.Fatal("taker left tuple behind")
	}

	s.Out(item("a", 2), time.Time{})
	h, ok := s.Hold(tmpl("a"))
	if !ok {
		t.Fatal("hold failed")
	}
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("held tuple visible")
	}
	h.Release()
	h.Accept() // no-op after release
	if _, ok := s.Rdp(tmpl("a")); !ok {
		t.Fatal("released tuple missing")
	}
	h2, _ := s.Hold(tmpl("a"))
	h2.Accept()
	if s.Count() != 0 {
		t.Fatal("accepted hold not removed")
	}
}

func TestNaiveExpiry(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	s := New(clk)
	defer s.Close()
	s.Out(item("a", 1), epoch.Add(time.Second))
	clk.Advance(2 * time.Second)
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("expired tuple visible")
	}
	if s.Count() != 0 {
		t.Fatal("expired tuple counted")
	}
}

func TestNaiveRemoveAndClose(t *testing.T) {
	s := New(nil)
	id, _ := s.Out(item("a", 1), time.Time{})
	if !s.Remove(id) || s.Remove(id) {
		t.Fatal("Remove semantics wrong")
	}
	w := s.Wait(tmpl("a"), false)
	s.Close()
	s.Close()
	if _, ok := <-w.Chan(); ok {
		t.Fatal("waiter survived close")
	}
	if _, err := s.Out(item("a", 2), time.Time{}); err == nil {
		t.Fatal("out on closed space")
	}
	w2 := s.Wait(tmpl("a"), false)
	if _, ok := <-w2.Chan(); ok {
		t.Fatal("waiter on closed space served")
	}
	w2.Cancel()
}

// keyPool returns the k'th key field of kind kind%5. The pools hold values
// that are equal under matching but differ in representation (±0, NaN
// payloads), so a hash index that keys on raw bits loses matches.
func keyPool(kind, k uint8) tuple.Field {
	switch kind % 5 {
	case 0:
		return tuple.Int([]int64{0, 1, -1, 42}[k%4])
	case 1:
		return tuple.String([]string{"", "a", "b", "ab"}[k%4])
	case 2:
		return tuple.Bool(k%2 == 0)
	case 3:
		return tuple.Bytes([][]byte{nil, []byte("a"), []byte("b"), []byte("ab")}[k%4])
	default:
		return tuple.Float([]float64{0, math.Copysign(0, -1), math.NaN(),
			math.Float64frombits(0x7ff8000000000abc), 1.5}[k%5])
	}
}

// formalOf returns the typed formal matching f's kind.
func formalOf(f tuple.Field) tuple.Field {
	switch f.Kind() {
	case tuple.KindInt:
		return tuple.FormalInt()
	case tuple.KindString:
		return tuple.FormalString()
	case tuple.KindBool:
		return tuple.FormalBool()
	case tuple.KindBytes:
		return tuple.FormalBytes()
	default:
		return tuple.FormalFloat()
	}
}

// TestPropDifferentialAgainstStore runs identical random operation
// sequences against the naive space and the optimised store; both must
// agree on every observable (found/not-found, count) at every step, and
// every returned tuple must match its template.
//
// Tuples cover both shard kinds and every key-field kind: ("k", key, n)
// in a tag shard, (key, n) in the scan shard (or, for a string key, under
// tag key), and the tag-only ("solo"). Templates pin the key field with
// an actual, leave it formal or Any, or lead with a formal. n is unique
// per Out, so when one space (the chooser, alternating) takes a tuple
// the other can take exactly the same one; only the interchangeable
// ("solo") tuples repeat.
func TestPropDifferentialAgainstStore(t *testing.T) {
	type op struct {
		Kind, Shape, KeyKind, Key uint8
		Val                       int64
	}
	template := func(o op) tuple.Template {
		key := keyPool(o.KeyKind, o.Key)
		switch o.Shape % 9 {
		case 0:
			return tuple.Tmpl(tuple.String("k"), key, tuple.FormalInt())
		case 1:
			return tuple.Tmpl(tuple.String("k"), formalOf(key), tuple.FormalInt())
		case 2:
			return tuple.Tmpl(tuple.String("k"), tuple.Any(), tuple.FormalInt())
		case 3:
			return tuple.Tmpl(tuple.FormalString(), key, tuple.FormalInt())
		case 4:
			return tuple.Tmpl(tuple.Any(), tuple.Any(), tuple.FormalInt())
		case 5:
			return tuple.Tmpl(key, tuple.FormalInt())
		case 6:
			return tuple.Tmpl(formalOf(key), tuple.FormalInt())
		case 7:
			return tuple.Tmpl(tuple.String("solo"))
		default:
			return tuple.Tmpl(tuple.Any())
		}
	}
	prop := func(ops []op) bool {
		clkA := clock.NewVirtual(epoch)
		clkB := clock.NewVirtual(epoch)
		naive := New(clkA)
		defer naive.Close()
		fast := store.New(store.WithClock(clkB), store.WithSeed(1))
		defer fast.Close()
		spaces := [2]space.Space{naive, fast}
		// ids maps the serial n of each unique Out to its id in each
		// space. A released hold reinstates its tuple under a new id, so
		// its serial is forgotten.
		ids := map[int64][2]uint64{}
		var serials []int64
		forget := func(t tuple.Tuple) {
			if n, err := t.IntAt(t.Arity() - 1); err == nil {
				delete(ids, n)
			}
		}
		for step, o := range ops {
			key := keyPool(o.KeyKind, o.Key)
			serial := tuple.Int(int64(step))
			chooser := int(o.Val & 1)
			switch o.Kind % 8 {
			case 0, 1: // out
				var tp tuple.Tuple
				switch o.Shape % 3 {
				case 0:
					tp = tuple.T(tuple.String("k"), key, serial)
				case 1:
					tp = tuple.T(key, serial)
				default:
					tp = tuple.T(tuple.String("solo"))
				}
				var expiry time.Time
				if o.Kind%8 == 1 && o.Shape%3 != 2 {
					expiry = clkA.Now().Add(time.Duration(1+uint64(o.Val)%3000) * time.Millisecond)
				}
				idA, errA := naive.Out(tp, expiry)
				idB, errB := fast.Out(tp, expiry)
				if errA != nil || errB != nil {
					t.Logf("step %d: out %v: %v / %v", step, tp, errA, errB)
					return false
				}
				if o.Shape%3 != 2 {
					ids[int64(step)] = [2]uint64{idA, idB}
					serials = append(serials, int64(step))
				}
			case 2: // rdp: presence agrees, results match
				p := template(o)
				gA, okA := naive.Rdp(p)
				gB, okB := fast.Rdp(p)
				if okA != okB || (okA && !p.Matches(gA)) || (okB && !p.Matches(gB)) {
					t.Logf("step %d: rdp %v: naive %v %v, store %v %v", step, p, gA, okA, gB, okB)
					return false
				}
			case 3, 4: // inp, or a hold that is accepted or released
				p := template(o)
				var got tuple.Tuple
				var ok bool
				if o.Kind%8 == 3 {
					got, ok = spaces[chooser].Inp(p)
				} else if h, held := spaces[chooser].Hold(p); held {
					got, ok = h.Tuple(), true
					if o.Val&2 != 0 {
						h.Release()
						forget(got)
						ok = false
						if _, again := spaces[chooser].Rdp(tuple.TemplateOf(got)); !again {
							t.Logf("step %d: released %v not reinstated", step, got)
							return false
						}
					} else {
						h.Accept()
					}
				}
				if !ok {
					// Not found (or released): the other space must not
					// find a match either, unless the release put it back.
					if _, other := spaces[1-chooser].Rdp(p); other && o.Kind%8 == 3 {
						t.Logf("step %d: take %v: chooser %d missed a match", step, p, chooser)
						return false
					}
					break
				}
				if !p.Matches(got) {
					t.Logf("step %d: take %v returned %v", step, p, got)
					return false
				}
				if _, exact := spaces[1-chooser].Inp(tuple.TemplateOf(got)); !exact {
					t.Logf("step %d: %v taken from space %d is absent from the other", step, got, chooser)
					return false
				}
			case 5: // remove by id: presence agrees
				if len(serials) == 0 {
					break
				}
				id, known := ids[serials[uint64(o.Val)%uint64(len(serials))]]
				if !known {
					break
				}
				if a, b := naive.Remove(id[0]), fast.Remove(id[1]); a != b {
					t.Logf("step %d: remove: naive %v, store %v", step, a, b)
					return false
				}
			case 6: // time passes: expiry on both clocks
				d := time.Duration(uint64(o.Val)%2000) * time.Millisecond
				clkA.Advance(d)
				clkB.Advance(d)
			case 7: // hold+release round trip is observably a no-op
				p := template(o)
				for _, sp := range spaces {
					if h, ok := sp.Hold(p); ok {
						h.Release()
						forget(h.Tuple())
					}
				}
			}
			if a, b := naive.Count(), fast.Count(); a != b {
				t.Logf("step %d (op %d): count naive %d, store %d", step, o.Kind%8, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 500,
		Rand:     rand.New(rand.NewSource(11)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInstanceRunsOnNaiveSpace proves §3.1.2's replaceability claim: a
// full two-node Tiamat deployment works with the naive space plugged in.
func TestInstanceRunsOnNaiveSpace(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := memnet.New(memnet.WithClock(clk))
	defer net.Close()
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()

	a, err := core.New(core.Config{Endpoint: epA, Clock: clk, Space: New(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := core.New(core.Config{Endpoint: epB, Clock: clk, Space: New(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Out(item("x", 7), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(context.Background(), tmpl("x"), nil)
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("remote take on naive space: %+v %v %v", res, ok, err)
	}
	var sp space.Space = a.LocalSpace()
	if sp.Count() != 1 { // space-info tuple only
		t.Fatalf("a count = %d", sp.Count())
	}
}
