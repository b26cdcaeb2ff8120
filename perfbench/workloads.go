package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/transport/netudp"
	"tiamat/tuple"
	"tiamat/wire"
)

// loopFunc is one closed-loop client: it issues its next operation only
// after the previous one completed, until ctx ends.
type loopFunc func(ctx context.Context, c *client)

// workload is one traffic mix: how to build and fill its cluster, its
// client loops, and the correctness check run after the drain. README.md
// records why each workload exists and which layers it stresses.
type workload struct {
	name  string
	build func(e *env) error
	// loops returns the measured clients and any unmeasured background
	// loops (farm workers) that serve them.
	loops func(e *env) (clients []loopFunc, background []func(context.Context))
	check func(e *env) error
}

var workloads = []*workload{
	{
		name:  "take",
		build: buildTake,
		loops: takeLoops,
		check: checkTake,
	},
	{
		name:  "lookup",
		build: buildLookup,
		loops: lookupLoops,
		check: checkLookup,
	},
	{
		name:  "farm",
		build: func(e *env) error { return buildFarm(e, 1) },
		loops: farmLoops,
		check: checkFarm,
	},
	{
		// farm at R=2 is the only workload that reaches routing and the
		// replica layer. Its write-through stalls keep it out of the
		// benchmark's bounded set (README.md, findings).
		name:  "farm-r2",
		build: func(e *env) error { return buildFarm(e, 2) },
		loops: farmLoops,
		check: checkFarm,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- cluster plumbing ------------------------------------------------------

// addNode starts an instance on ep (wrapped when traced) and registers its
// teardown.
func (e *env) addNode(ep transport.Endpoint, mutate func(*core.Config)) (*core.Instance, error) {
	cfg := core.Config{Endpoint: e.endpoint(ep), Clock: e.clock(), Metrics: e.met}
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := core.New(cfg)
	if err != nil {
		ep.Close()
		return nil, err
	}
	e.insts = append(e.insts, in)
	e.onClose(func() { in.Close() })
	return in, nil
}

// ready polls until every node lists every other node as a responder,
// running a discovery round from any node still missing a peer. It is
// the readiness condition setup_s ends on, so no fixed sleep hides in
// set-up time.
func (e *env) ready() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		missing := 0
		for _, in := range e.insts {
			known := map[wire.Addr]bool{}
			for _, a := range in.ResponderList() {
				known[a] = true
			}
			lacking := false
			for _, other := range e.insts {
				if other != in && !known[other.Addr()] {
					lacking = true
				}
			}
			if lacking {
				missing++
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				_, _ = in.Spaces(ctx)
				cancel()
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d nodes still missing peers after 10s", missing)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkTuple verifies a read or take returned exactly the stored tuple.
func (e *env) checkTuple(op string, key int64, t tuple.Tuple, want []byte) {
	got, err1 := t.IntAt(1)
	pl, err2 := t.BytesAt(2)
	if err1 != nil || err2 != nil || got != key || !bytes.Equal(pl, want) {
		e.bad.add("%s: asked for key %d, got %v", op, key, t)
	}
}

// leftovers counts tuples tagged tag in a node's local space.
func leftovers(in *core.Instance, tag string, arity int) int {
	fields := []tuple.Field{tuple.String(tag)}
	for i := 1; i < arity; i++ {
		fields = append(fields, tuple.Any())
	}
	n := 0
	for _, t := range in.LocalSpace().Snapshot() {
		if tuple.Tmpl(fields...).Matches(t) {
			n++
		}
	}
	return n
}

var bg = context.Background()

// --- take ----------------------------------------------------------------

func buildTake(e *env) error {
	epA, err := netudp.New(netudp.Config{Listen: "127.0.0.1:0", Metrics: e.met})
	if err != nil {
		return err
	}
	a, err := e.addNode(epA, nil)
	if err != nil {
		return err
	}
	epB, err := netudp.New(netudp.Config{Listen: "127.0.0.1:0", StaticPeers: []string{string(a.Addr())}, Metrics: e.met})
	if err != nil {
		return err
	}
	if _, err := e.addNode(epB, nil); err != nil {
		return err
	}
	return e.ready()
}

func takeLoops(e *env) ([]loopFunc, []func(context.Context)) {
	a, b := e.insts[0], e.insts[1]
	loop := func(ctx context.Context, c *client) {
		for ctx.Err() == nil {
			k := c.key()
			pl := e.payload(k)
			tmpl := tuple.Tmpl(tuple.String("tk"), tuple.Int(k), tuple.FormalBytes())
			start := time.Now()
			err := a.Out(tuple.T(tuple.String("tk"), tuple.Int(k), tuple.Bytes(pl)), nil)
			c.sub("out", string(a.Addr()), start)
			if err != nil {
				c.finish(start, false)
				continue
			}
			t1 := time.Now()
			res, ok, err := b.Inp(bg, tmpl, nil)
			c.sub("take", string(b.Addr()), t1)
			if err != nil || !ok {
				c.finish(start, false)
				// The tuple is still on A: take it back locally so a miss
				// is counted as a failure, not mistaken for a leak.
				if _, ok, _ := a.Inp(bg, tmpl, nil); !ok {
					e.bad.add("take: key %d missed from B and gone from A", k)
				}
				continue
			}
			e.checkTuple("take", k, res.Tuple, pl)
			c.finish(start, true)
		}
	}
	return repeat(loop, e.p.clients), nil
}

func checkTake(e *env) error {
	for _, in := range e.insts {
		if n := leftovers(in, "tk", 3); n != 0 {
			return fmt.Errorf("take: %d tuples left on %s after the drain", n, in.Addr())
		}
	}
	return nil
}

func repeat(f loopFunc, n int) []loopFunc {
	out := make([]loopFunc, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// --- lookup ----------------------------------------------------------------

// residentTerms keeps the resident set's out leases alive past any run.
var residentTerms = lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 10})

func (e *env) lookupKey(id int) int64 { return int64((uint64(id) ^ e.salt) &^ (1 << 63)) }

func buildLookup(e *env) error {
	net := memnet.New(memnet.WithClock(e.clock()), memnet.WithMetrics(e.met))
	e.onClose(net.Close)
	ep, err := net.Attach("n0")
	if err != nil {
		return err
	}
	caps := lease.DefaultCapacity()
	caps.MaxActive = 2*e.p.resident + 1024 // resident out leases plus in-flight ops
	in, err := e.addNode(ep, func(c *core.Config) { c.Leases = caps })
	if err != nil {
		return err
	}
	for id := 0; id < e.p.resident; id++ {
		k := e.lookupKey(id)
		if err := in.Out(tuple.T(tuple.String("rec"), tuple.Int(k), tuple.Bytes(e.payload(k))), residentTerms); err != nil {
			return fmt.Errorf("prefill %d: %w", id, err)
		}
	}
	if n := leftovers(in, "rec", 3); n != e.p.resident {
		return fmt.Errorf("prefill stored %d of %d tuples", n, e.p.resident)
	}
	return nil
}

func lookupLoops(e *env) ([]loopFunc, []func(context.Context)) {
	in := e.insts[0]
	loop := func(ctx context.Context, c *client) {
		// Each client owns the ids ≡ its index mod the client count, so no
		// other client can make one of its keys miss.
		owned := (e.p.resident - c.id + e.p.clients - 1) / e.p.clients
		for ctx.Err() == nil {
			k := e.lookupKey(c.rng.Intn(owned)*e.p.clients + c.id)
			pl := e.payload(k)
			tmpl := tuple.Tmpl(tuple.String("rec"), tuple.Int(k), tuple.FormalBytes())
			start := time.Now()
			if c.rng.Intn(10) != 0 {
				res, ok, err := in.Rdp(bg, tmpl, nil)
				c.sub("read", "n0", start)
				if err == nil && ok {
					e.checkTuple("lookup rdp", k, res.Tuple, pl)
				}
				c.finish(start, err == nil && ok)
				continue
			}
			res, ok, err := in.Inp(bg, tmpl, nil)
			c.sub("take", "n0", start)
			if err != nil || !ok {
				c.finish(start, false)
				continue
			}
			e.checkTuple("lookup inp", k, res.Tuple, pl)
			t1 := time.Now()
			err = in.Out(res.Tuple, residentTerms)
			c.sub("out", "n0", t1)
			if err != nil {
				e.bad.add("lookup: re-out of key %d failed: %v", k, err)
			}
			c.finish(start, err == nil)
		}
	}
	return repeat(loop, e.p.clients), nil
}

func checkLookup(e *env) error {
	if n := leftovers(e.insts[0], "rec", 3); n != e.p.resident {
		return fmt.Errorf("lookup: %d resident tuples after the drain, want %d", n, e.p.resident)
	}
	return nil
}

// --- farm ------------------------------------------------------------------

func buildFarm(e *env, replicas int) error {
	net := memnet.New(memnet.WithClock(e.clock()), memnet.WithMetrics(e.met))
	e.onClose(net.Close)
	var eps []transport.Endpoint
	for i := 0; i < 4; i++ {
		ep, err := net.Attach(wire.Addr(fmt.Sprintf("n%d", i)))
		if err != nil {
			return err
		}
		eps = append(eps, ep)
	}
	net.ConnectAll()
	for _, ep := range eps {
		if _, err := e.addNode(ep, func(c *core.Config) { c.Replicas = replicas }); err != nil {
			return err
		}
	}
	return e.ready()
}

// executed records which tasks a worker ran, one bitset per master, so a
// task executed twice is caught without a map that grows with the run.
type executed struct {
	mu   sync.Mutex
	bits map[int][]uint64
}

func (x *executed) mark(master int, seq uint64) (dup bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	b := x.bits[master]
	for uint64(len(b))*64 <= seq {
		b = append(b, 0)
	}
	x.bits[master] = b
	w, m := seq/64, uint64(1)<<(seq%64)
	dup = b[w]&m != 0
	b[w] |= m
	return dup
}

// unkey inverts client.key: the client index and sequence number.
func (e *env) unkey(k int64) (int, uint64) {
	v := uint64(k) ^ e.salt&^(1<<63)
	return int(v>>40) - 1, v & (1<<40 - 1)
}

func transform(pl []byte) []byte {
	out := make([]byte, len(pl))
	for i, b := range pl {
		out[i] = b ^ 0xa5
	}
	return out
}

func farmLoops(e *env) ([]loopFunc, []func(context.Context)) {
	done := &executed{bits: map[int][]uint64{}}
	master := func(ctx context.Context, c *client) {
		node := e.insts[c.id%2]
		for ctx.Err() == nil {
			id := c.key()
			pl := e.payload(id)
			start := time.Now()
			err := node.Out(tuple.T(tuple.String("task"), tuple.Int(id), tuple.Bytes(pl)), nil)
			c.sub("out", string(node.Addr()), start)
			if err != nil {
				c.finish(start, false)
				continue
			}
			t1 := time.Now()
			tmpl := tuple.Tmpl(tuple.String("result"), tuple.Int(id), tuple.FormalBytes())
			res, err := node.In(bg, tmpl, nil)
			c.sub("take", string(node.Addr()), t1)
			ok := err == nil
			// A result that missed its lease is still owed: keep waiting
			// (the operation already counts as failed) so it is not left
			// behind as a false leak.
			for err != nil && errors.Is(err, core.ErrNoMatch) && time.Since(start) < 30*time.Second {
				res, err = node.In(bg, tmpl, nil)
			}
			if err != nil {
				e.bad.add("farm: result of task %d never arrived: %v", id, err)
			} else {
				e.checkTuple("farm result", id, res.Tuple, transform(pl))
			}
			c.finish(start, ok)
		}
	}
	worker := func(w int) func(context.Context) {
		node := e.insts[2+w%2]
		tmpl := tuple.Tmpl(tuple.String("task"), tuple.FormalInt(), tuple.FormalBytes())
		return func(ctx context.Context) {
			for ctx.Err() == nil {
				res, err := node.In(ctx, tmpl, nil)
				if err != nil {
					continue // lease ran out with no task, or the drain began
				}
				id, _ := res.Tuple.IntAt(1)
				pl, _ := res.Tuple.BytesAt(2)
				if m, seq := e.unkey(id); m < 0 || m >= e.p.clients || seq > 1<<32 {
					e.bad.add("farm: worker took task %d that no master issued", id)
				} else if done.mark(m, seq) {
					e.bad.add("farm: task %d executed twice", id)
				}
				if err := node.Out(tuple.T(tuple.String("result"), tuple.Int(id), tuple.Bytes(transform(pl))), nil); err != nil {
					e.bad.add("farm: result out for task %d failed: %v", id, err)
				}
			}
		}
	}
	var workers []func(context.Context)
	for w := 0; w < e.p.clients; w++ {
		workers = append(workers, worker(w))
	}
	return repeat(master, e.p.clients), workers
}

func checkFarm(e *env) error {
	for _, in := range e.insts {
		for _, tag := range []string{"task", "result"} {
			if n := leftovers(in, tag, 3); n != 0 {
				return fmt.Errorf("%s: %d %q tuples left on %s after the drain", e.p.workload, n, tag, in.Addr())
			}
		}
	}
	return nil
}
