package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/tuple"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func newTest() (*Store, *clock.Virtual) {
	clk := clock.NewVirtual(epoch)
	return New(WithClock(clk), WithSeed(42)), clk
}

func req(id int64) tuple.Tuple { return tuple.T(tuple.String("req"), tuple.Int(id)) }
func reqTmpl() tuple.Template  { return tuple.Tmpl(tuple.String("req"), tuple.FormalInt()) }
func never() time.Time         { return time.Time{} }

func TestOutRdpInp(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("Rdp on empty space matched")
	}
	if _, err := s.Out(req(1), never()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Rdp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatalf("Rdp = %v %v", got, ok)
	}
	if s.Count() != 1 {
		t.Fatal("Rdp must not remove")
	}
	got, ok = s.Inp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatalf("Inp = %v %v", got, ok)
	}
	if s.Count() != 0 {
		t.Fatal("Inp must remove")
	}
	if _, ok := s.Inp(reqTmpl()); ok {
		t.Fatal("second Inp matched")
	}
}

func TestArityIsolation(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.Int(1)), never())
	s.Out(tuple.T(tuple.Int(1), tuple.Int(2)), never())
	if _, ok := s.Rdp(tuple.Tmpl(tuple.FormalInt())); !ok {
		t.Fatal("arity-1 lookup failed")
	}
	if _, ok := s.Rdp(tuple.Tmpl(tuple.FormalInt(), tuple.FormalInt(), tuple.FormalInt())); ok {
		t.Fatal("arity-3 lookup matched")
	}
}

func TestNondeterministicSelectionCoversAll(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	for i := int64(0); i < 5; i++ {
		s.Out(req(i), never())
	}
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		got, ok := s.Rdp(reqTmpl())
		if !ok {
			t.Fatal("no match")
		}
		id, _ := got.IntAt(1)
		seen[id] = true
	}
	if len(seen) < 3 {
		t.Fatalf("selection not spread across matches: saw %v", seen)
	}

	// Same-key duplicates share one chain of the key-field index, longer
	// than the candidate cap: the walk must not always sample the same
	// window and starve the rest.
	const dups = 3 * maxCandidates
	for i := int64(0); i < dups; i++ {
		s.Out(tuple.T(tuple.String("dup"), tuple.Int(7), tuple.Int(i)), never())
	}
	dupSeen := map[int64]bool{}
	for i := 0; i < 50*dups; i++ {
		got, ok := s.Rdp(tuple.Tmpl(tuple.String("dup"), tuple.Int(7), tuple.FormalInt()))
		if !ok {
			t.Fatal("no match among duplicates")
		}
		v, _ := got.IntAt(2)
		dupSeen[v] = true
	}
	if len(dupSeen) != dups {
		t.Fatalf("same-key selection saw %d of %d duplicates", len(dupSeen), dups)
	}
}

func TestWaitRdDeliversCopyAndKeepsTuple(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := s.Wait(reqTmpl(), false)
	select {
	case <-w.Chan():
		t.Fatal("waiter fired before Out")
	default:
	}
	s.Out(req(7), never())
	got, ok := <-w.Chan()
	if !ok || !got.Equal(req(7)) {
		t.Fatalf("waiter got %v %v", got, ok)
	}
	if s.Count() != 1 {
		t.Fatal("rd-waiter consumed the tuple")
	}
	// Channel is closed after the single delivery.
	if _, ok := <-w.Chan(); ok {
		t.Fatal("waiter delivered twice")
	}
}

func TestWaitInConsumes(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := s.Wait(reqTmpl(), true)
	s.Out(req(9), never())
	got, ok := <-w.Chan()
	if !ok || !got.Equal(req(9)) {
		t.Fatalf("waiter got %v %v", got, ok)
	}
	if s.Count() != 0 {
		t.Fatal("in-waiter did not consume the tuple")
	}
}

func TestWaiterFIFOReadersThenTaker(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	r1 := s.Wait(reqTmpl(), false)
	r2 := s.Wait(reqTmpl(), false)
	in1 := s.Wait(reqTmpl(), true)
	in2 := s.Wait(reqTmpl(), true)
	s.Out(req(1), never())
	if _, ok := <-r1.Chan(); !ok {
		t.Fatal("reader 1 not served")
	}
	if _, ok := <-r2.Chan(); !ok {
		t.Fatal("reader 2 not served")
	}
	if _, ok := <-in1.Chan(); !ok {
		t.Fatal("first taker not served")
	}
	select {
	case _, ok := <-in2.Chan():
		if ok {
			t.Fatal("second taker served for a single tuple")
		}
		t.Fatal("second taker channel closed unexpectedly")
	default:
	}
	if s.Count() != 0 {
		t.Fatal("tuple stored despite taker")
	}
	in2.Cancel()
}

func TestWaiterCancel(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := s.Wait(reqTmpl(), true)
	w.Cancel()
	w.Cancel() // idempotent
	if _, ok := <-w.Chan(); ok {
		t.Fatal("cancelled waiter received tuple")
	}
	s.Out(req(1), never())
	if s.Count() != 1 {
		t.Fatal("tuple should be stored after waiter cancelled")
	}
}

func TestWaiterMismatchedTemplateNotServed(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := s.Wait(tuple.Tmpl(tuple.String("resp"), tuple.FormalInt()), true)
	defer w.Cancel()
	s.Out(req(1), never())
	select {
	case <-w.Chan():
		t.Fatal("mismatched waiter served")
	default:
	}
	if s.Count() != 1 {
		t.Fatal("tuple missing")
	}
}

func TestHoldAcceptRemoves(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, ok := s.Hold(reqTmpl())
	if !ok {
		t.Fatal("Hold found nothing")
	}
	if !h.Tuple().Equal(req(1)) {
		t.Fatalf("held %v", h.Tuple())
	}
	if s.Count() != 0 {
		t.Fatal("held tuple still visible")
	}
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("held tuple matched")
	}
	h.Accept()
	h.Release() // no-op after accept
	if s.Count() != 0 {
		t.Fatal("release after accept reinstated")
	}
}

func TestHoldReleaseReinstates(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, _ := s.Hold(reqTmpl())
	h.Release()
	h.Accept() // no-op after release
	got, ok := s.Rdp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatal("released tuple not reinstated")
	}
}

func TestHoldReleaseServesWaiter(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, _ := s.Hold(reqTmpl())
	w := s.Wait(reqTmpl(), true)
	h.Release()
	got, ok := <-w.Chan()
	if !ok || !got.Equal(req(1)) {
		t.Fatal("waiter not served by reinstated tuple")
	}
}

func TestLeaseExpiryReclaims(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	s.Out(req(1), epoch.Add(10*time.Second))
	s.Out(req(2), epoch.Add(20*time.Second))
	s.Out(req(3), never())
	clk.Advance(10 * time.Second)
	if s.Count() != 2 {
		t.Fatalf("Count = %d after first expiry, want 2", s.Count())
	}
	clk.Advance(10 * time.Second)
	if s.Count() != 1 {
		t.Fatalf("Count = %d after second expiry, want 1", s.Count())
	}
	if s.Reclaimed() != 2 {
		t.Fatalf("Reclaimed = %d", s.Reclaimed())
	}
	clk.Advance(time.Hour)
	if s.Count() != 1 {
		t.Fatal("never-expiring tuple reclaimed")
	}
}

// armCounter is a virtual clock that counts the timers armed on it.
type armCounter struct {
	*clock.Virtual
	armed atomic.Int64
}

func (c *armCounter) AfterFunc(d time.Duration, f func()) func() bool {
	c.armed.Add(1)
	return c.Virtual.AfterFunc(d, f)
}

// The janitor reclaims every tuple at its own expiry however earlier and
// later expiries interleave, including inserts made while it runs. An
// insert that does not become the shard's earliest expiry arms no timer.
func TestJanitorInterleavedExpiries(t *testing.T) {
	clk := &armCounter{Virtual: clock.NewVirtual(epoch)}
	s := New(WithClock(clk), WithShards(1))
	defer s.Close()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Insert instants and lifetimes, in insert order.
	type out struct{ at, life int }
	outs := []out{
		{0, 10000}, {0, 5000}, {0, 20000}, {0, 1000}, {0, 15000}, {0, 7000}, {0, 30000}, {0, 3000},
		{2000, 500}, {2000, 23000}, {4500, 1500}, {6000, 100}, {6000, 24000},
	}
	for i, o := range outs {
		if o.at == 0 {
			s.Out(req(int64(i)), epoch.Add(ms(o.life)))
		}
	}
	// Only the 10s, 5s and 1s inserts were a new earliest expiry.
	if n := clk.armed.Load(); n != 3 {
		t.Fatalf("initial inserts armed %d timers, want 3", n)
	}
	for now := 100; now <= 31000; now += 100 {
		clk.AdvanceTo(epoch.Add(ms(now)))
		live := 0
		for i, o := range outs {
			if o.at == now && o.at > 0 {
				s.Out(req(int64(i)), epoch.Add(ms(o.at+o.life)))
			}
			if o.at <= now && o.at+o.life > now {
				live++
			}
		}
		if got := s.Count(); got != live {
			t.Fatalf("at %dms: %d tuples stored, want %d", now, got, live)
		}
	}
	if got := s.Reclaimed(); got != int64(len(outs)) {
		t.Fatalf("Reclaimed = %d, want %d", got, len(outs))
	}
	if clk.Pending() != 0 {
		t.Fatalf("%d janitor timers left pending", clk.Pending())
	}
}

// A tuple stored with an expiry already past, as when a hold is released
// after its tuple's lease ran out, is invisible and reclaimed on the next
// tick; arming its janitor must not re-enter the shard lock.
func TestOutAlreadyExpiredIsReclaimed(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	s.Out(req(1), epoch.Add(time.Second))
	h, ok := s.Hold(reqTmpl())
	if !ok {
		t.Fatal("hold failed")
	}
	clk.Advance(2 * time.Second)
	h.Release()
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("expired tuple visible after release")
	}
	clk.Advance(time.Millisecond)
	if s.Count() != 0 || s.Reclaimed() != 1 {
		t.Fatalf("count %d, reclaimed %d after the janitor tick", s.Count(), s.Reclaimed())
	}
}

func TestExpiredTupleInvisibleBeforeJanitor(t *testing.T) {
	// Even if the janitor has not run (e.g. timer about to fire), an
	// expired tuple must not match.
	s, clk := newTest()
	defer s.Close()
	s.Out(req(1), epoch.Add(time.Second))
	// Advance to exactly the expiry instant: tuple is no longer visible.
	if _, ok := s.Rdp(reqTmpl()); !ok {
		t.Fatal("tuple should be visible before expiry")
	}
	clk.AdvanceTo(epoch.Add(time.Second))
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("expired tuple matched")
	}
}

func TestRemoveByID(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	id, _ := s.Out(req(1), never())
	if !s.Remove(id) {
		t.Fatal("Remove reported absent")
	}
	if s.Remove(id) {
		t.Fatal("second Remove reported present")
	}
	if s.Count() != 0 {
		t.Fatal("tuple survived Remove")
	}
}

func TestRemoveExpiringTupleCleansHeap(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	id, _ := s.Out(req(1), epoch.Add(time.Second))
	s.Remove(id)
	clk.Advance(time.Hour) // janitor must not double-free
	if s.Reclaimed() != 0 {
		t.Fatalf("Reclaimed = %d for already-removed tuple", s.Reclaimed())
	}
}

func TestBytesAndSnapshot(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	s.Out(tuple.T(tuple.Bytes(make([]byte, 100))), never())
	if s.Bytes() < 100 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d", len(snap))
	}
}

func TestCloseCancelsWaitersAndRefusesOut(t *testing.T) {
	s, _ := newTest()
	w := s.Wait(reqTmpl(), true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if _, ok := <-w.Chan(); ok {
		t.Fatal("waiter received after Close")
	}
	if _, err := s.Out(req(1), never()); err != ErrClosed {
		t.Fatalf("Out after close: %v", err)
	}
	w2 := s.Wait(reqTmpl(), false)
	if _, ok := <-w2.Chan(); ok {
		t.Fatal("waiter on closed store received")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	const n = 200
	var wg sync.WaitGroup
	consumed := make(chan int64, n)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w := s.Wait(reqTmpl(), true)
				got, ok := <-w.Chan()
				if !ok {
					return
				}
				id, _ := got.IntAt(1)
				consumed <- id
				if len(consumed) == n {
					return
				}
			}
		}()
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if _, err := s.Out(req(int64(p*1000+i)), never()); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		for len(consumed) < n {
			time.Sleep(time.Millisecond)
		}
		s.Close() // unblock remaining waiters
		close(done)
	}()
	wg.Wait()
	<-done
	// Every produced tuple was consumed exactly once.
	seen := map[int64]bool{}
	close(consumed)
	for id := range consumed {
		if seen[id] {
			t.Fatalf("tuple %d consumed twice", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("consumed %d tuples, want %d", len(seen), n)
	}
	if s.Count() != 0 {
		t.Fatalf("%d tuples left over", s.Count())
	}
}

// Property: racing Hold/Inp operations never duplicate or lose a tuple.
func TestPropHoldNeverDuplicates(t *testing.T) {
	prop := func(seed int64, releaseMask uint8) bool {
		s := New(WithSeed(seed))
		defer s.Close()
		const total = 8
		for i := int64(0); i < total; i++ {
			s.Out(req(i), never())
		}
		var holds []space.Hold
		for {
			h, ok := s.Hold(reqTmpl())
			if !ok {
				break
			}
			holds = append(holds, h)
		}
		if len(holds) != total {
			return false
		}
		released := 0
		for i, h := range holds {
			if releaseMask&(1<<uint(i)) != 0 {
				h.Release()
				released++
			} else {
				h.Accept()
			}
		}
		return s.Count() == released
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved Out/Inp conserves tuples (stored - taken = live).
func TestPropConservation(t *testing.T) {
	prop := func(ops []bool, seed int64) bool {
		s := New(WithSeed(seed))
		defer s.Close()
		live := 0
		for i, isOut := range ops {
			if isOut {
				s.Out(req(int64(i)), never())
				live++
			} else if _, ok := s.Inp(reqTmpl()); ok {
				live--
			}
		}
		return s.Count() == live
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after random expiries and a long janitor run, exactly the
// never-expiring tuples remain.
func TestPropExpiryExactness(t *testing.T) {
	prop := func(durs []uint16) bool {
		clk := clock.NewVirtual(epoch)
		s := New(WithClock(clk), WithSeed(7))
		defer s.Close()
		forever := 0
		for i, d := range durs {
			if d%5 == 0 {
				s.Out(req(int64(i)), never())
				forever++
			} else {
				s.Out(req(int64(i)), epoch.Add(time.Duration(d)*time.Millisecond))
			}
		}
		clk.Advance(100 * time.Second)
		return s.Count() == forever
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTagIndexCorrectAcrossMixedTags(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.String("alpha"), tuple.Int(1)), never())
	s.Out(tuple.T(tuple.String("beta"), tuple.Int(2)), never())
	s.Out(tuple.T(tuple.Int(99), tuple.Int(3)), never()) // untagged (non-string lead)

	if got, ok := s.Rdp(tuple.Tmpl(tuple.String("alpha"), tuple.FormalInt())); !ok {
		t.Fatal("tagged lookup failed")
	} else if v, _ := got.IntAt(1); v != 1 {
		t.Fatalf("wrong tuple: %v", got)
	}
	// A formal lead walks the same-arity buckets of every shard and can
	// see everything.
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		got, ok := s.Rdp(tuple.Tmpl(tuple.Any(), tuple.FormalInt()))
		if !ok {
			t.Fatal("wildcard lookup failed")
		}
		v, _ := got.IntAt(1)
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("wildcard lookup saw %v, want all 3", seen)
	}
	// Takes clean both indexes.
	if _, ok := s.Inp(tuple.Tmpl(tuple.String("beta"), tuple.FormalInt())); !ok {
		t.Fatal("tagged take failed")
	}
	if _, ok := s.Rdp(tuple.Tmpl(tuple.String("beta"), tuple.FormalInt())); ok {
		t.Fatal("taken tuple still indexed by tag")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestTagIndexExpiryCleansBuckets(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.String("tmp"), tuple.Int(1)), epoch.Add(time.Second))
	clk.Advance(2 * time.Second)
	if _, ok := s.Rdp(tuple.Tmpl(tuple.String("tmp"), tuple.FormalInt())); ok {
		t.Fatal("expired tuple visible via tag index")
	}
	// Reuse of the same tag works after reclamation.
	s.Out(tuple.T(tuple.String("tmp"), tuple.Int(2)), never())
	if got, ok := s.Rdp(tuple.Tmpl(tuple.String("tmp"), tuple.FormalInt())); !ok {
		t.Fatal("fresh tagged tuple invisible")
	} else if v, _ := got.IntAt(1); v != 2 {
		t.Fatalf("got %v", got)
	}
}
