package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tiamat/clock"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/routing"
	"tiamat/trace"
	"tiamat/tuple"
	"tiamat/wire"
)

// shape is a workload's representative tuple and template, used to time
// unit costs on the inputs the workload actually sends.
type shape struct {
	tag   string
	tuple tuple.Tuple
	tmpl  tuple.Template
}

func workloadShape(e *env) shape {
	tag := map[string]string{"take": "tk", "lookup": "rec"}[e.p.workload]
	if tag == "" {
		tag = "task"
	}
	k := e.lookupKey(1)
	return shape{
		tag:   tag,
		tuple: tuple.T(tuple.String(tag), tuple.Int(k), tuple.Bytes(e.payload(k))),
		tmpl:  tuple.Tmpl(tuple.String(tag), tuple.Int(k), tuple.FormalBytes()),
	}
}

// unitNs times f: it runs batches for about budget and returns the median
// batch mean in ns per call.
func unitNs(budget time.Duration, f func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		if time.Since(t0) > budget/50 || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var means []float64
	for end := time.Now().Add(budget); time.Now().Before(end) || len(means) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		means = append(means, float64(time.Since(t0))/float64(batch))
	}
	return median(means)
}

// liveRdpUs times read-only Rdp calls on the live first node's space with
// the workload's own templates. It runs after the drain, so on take and farm
// it prices a miss on a near-empty space and on lookup a hit among the
// resident set.
func liveRdpUs(e *env) float64 {
	sh := workloadShape(e)
	sp := e.insts[0].LocalSpace()
	i := 0
	return unitNs(60*time.Millisecond, func() {
		i = (i*7 + 13) % e.p.resident
		sp.Rdp(tuple.Tmpl(tuple.String(sh.tag), tuple.Int(e.lookupKey(i)), tuple.FormalBytes()))
	}) / 1e3
}

// unitCosts are per-call costs measured outside the cluster, on the
// workload's own tuple, frame, lease terms and key shapes.
type unitCosts struct {
	matchNs, tupEncNs, tupDecNs, tupBytes float64
	wireEncNs, wireDecNs                  float64
	grantNs, incNs, nowNs, placeNs        float64
	inpUs, outUs, holdUs                  float64 // replay store at the run's resident count
}

func measureUnits(e *env, resident int) unitCosts {
	const budget = 60 * time.Millisecond
	sh := workloadShape(e)
	var u unitCosts
	var sink bool
	u.matchNs = unitNs(budget, func() { sink = sh.tmpl.Matches(sh.tuple) })
	_ = sink
	buf := make([]byte, 0, 256)
	enc := sh.tuple.AppendBinary(buf[:0])
	u.tupBytes = float64(len(enc))
	u.tupEncNs = unitNs(budget, func() { buf = sh.tuple.AppendBinary(buf[:0]) })
	u.tupDecNs = unitNs(budget, func() { _, _, _ = tuple.DecodeTuple(enc) })

	// A result frame carries the tuple; it is the largest frame on every
	// workload's blocking path.
	msg := &wire.Message{Type: wire.TResult, ID: 42, From: "127.0.0.1:40000", Found: true, HoldID: 7, Tuple: sh.tuple}
	frame := wire.AppendEncode(nil, msg)
	u.wireEncNs = unitNs(budget, func() { buf = wire.AppendEncode(buf[:0], msg) })
	u.wireDecNs = unitNs(budget, func() { _, _ = wire.Decode(frame) })

	mgr := lease.NewManager(lease.DefaultCapacity(), clock.Real{})
	req := lease.Flexible(lease.Terms{Duration: 5 * time.Second, MaxRemotes: 16, MaxBytes: 64 << 10})
	u.grantNs = unitNs(budget, func() {
		if l, err := mgr.Grant(lease.OpInp, req); err == nil {
			l.Cancel()
		}
	})
	mgr.Close()
	var met trace.Metrics
	u.incNs = unitNs(budget, func() { met.Inc(trace.CtrOpsInp) })
	u.nowNs = unitNs(budget, func() { _ = clock.Real{}.Now() })
	var members []wire.Addr
	for _, in := range e.insts {
		members = append(members, in.Addr())
	}
	ring := routing.BuildRing(members, nil)
	var dst []wire.Addr
	u.placeNs = unitNs(budget, func() { dst = ring.PlaceAppend(dst[:0], sh.tag, 3, 2) })

	// Mutating store calls run on a replay store loaded to the peak
	// resident count sampled during the run, never on the live node's
	// store.
	st := store.New()
	defer st.Close()
	n := resident
	if n < 1 {
		n = 1
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = e.lookupKey(i)
		if _, err := st.Out(tuple.T(tuple.String(sh.tag), tuple.Int(keys[i]), tuple.Bytes(e.payload(keys[i]))), time.Time{}); err != nil {
			return u
		}
	}
	i := 0
	next := func() (tuple.Tuple, tuple.Template) {
		i = (i*7 + 13) % n // walk the keys in a scattered order
		k := keys[i]
		return tuple.T(tuple.String(sh.tag), tuple.Int(k), tuple.Bytes(e.payload(k))),
			tuple.Tmpl(tuple.String(sh.tag), tuple.Int(k), tuple.FormalBytes())
	}
	// Out is timed with an immediate Remove of the stored id, so the
	// resident count stays fixed; inp is timed paired with the re-out that
	// restores its key, minus the out cost.
	extra := tuple.T(tuple.String(sh.tag), tuple.Int(-1), tuple.Bytes(e.payload(-1)))
	u.outUs = unitNs(budget, func() {
		if id, err := st.Out(extra, time.Time{}); err == nil {
			st.Remove(id)
		}
	}) / 1e3
	pair := unitNs(budget, func() {
		t, p := next()
		st.Inp(p)
		_, _ = st.Out(t, time.Time{})
	}) / 1e3
	u.inpUs = math.Max(pair-u.outUs, 0)
	u.holdUs = unitNs(budget, func() {
		_, p := next()
		if h, ok := st.Hold(p); ok {
			h.Release()
		}
	}) / 1e3
	return u
}

// metric is one named output value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailOnly names metrics that are printed and kept in the report file but
// left out of the final JSON line. The routing layer's time is zero on
// every R=1 workload, so routing shows as routing.place_ns and
// replica.writes_per_op instead. The p99 moves with CPU stolen by other
// guests far more than any bound a regression gate can use (README.md),
// so p90 is the gated tail.
var detailOnly = map[string]bool{"layer.routing_us_per_op": true, "latency_p99_us": true}

// layerTable derives the per-layer metrics of a traced run and the
// decomposition of its mean latency.
func layerTable(e *env, untraced, traced *result) ([]metric, []string) {
	ops := traced.completed
	t := traced.tot
	tc := t.tc
	c := traced.ctr
	po := func(name string) float64 { return perOp(c(name), ops) }
	u := measureUnits(e, traced.resident)
	m := traced.endToEnd(e.p)
	mu := untraced.endToEnd(e.p)

	sub := func(kind string, q float64) float64 {
		xs := traced.subs[kind]
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, q)
	}

	// Store and tuple.
	outs, reads, takes := po("ops.out"), po("ops.rdp")+po("ops.rd"), po("ops.inp")+po("ops.in")
	served := po("ops.remote_hit")
	storeOps := outs + reads + takes + served
	hits := c("ops.local_hit") + c("ops.remote_hit")
	lookups := c("ops.rdp") + c("ops.rd") + c("ops.inp") + c("ops.in")
	storeUs := outs*u.outUs + reads*traced.liveRdpUs + takes*u.inpUs + served*u.holdUs

	// Wire and transport.
	msgs := po("net.msgs_sent")
	codecUs := msgs * (u.wireEncNs + u.wireDecNs) / 1e3
	sendBusy := perOp(float64(tc.sendNs+tc.mcNs)/1e3, ops)
	transportUs := math.Max(sendBusy-msgs*u.wireEncNs/1e3, 0)

	// Lease, clock, trace.
	grants := perOp(float64(t.granted), ops)
	refused := float64(t.refused)
	adds := 0.0
	for name := range t.ctr {
		if strings.Contains(name, "bytes") || strings.HasSuffix(name, "_ns") {
			continue
		}
		if d := c(name); d > 0 {
			adds += d
		}
	}
	adds = perOp(adds, ops)
	nows := perOp(float64(tc.nows), ops)
	timers := perOp(float64(tc.timers), ops)
	leaseUs := grants * u.grantNs / 1e3
	traceUs := adds * u.incNs / 1e3
	clockUs := nows * u.nowNs / 1e3

	// Core contact path, discovery, governor.
	remoteOps := c("ops.remote_hit")
	shed := float64(t.sheds)
	tops := float64(tc.tops)
	// Every remote hit waited once in a responder's serve queue.
	govUs := perOp(remoteOps, ops) * float64(traced.queueDelay()) / 1e3

	// Replica and routing.
	writes := po("repl.writes")
	routingUs := writes * u.placeNs / 1e3

	layersUs := storeUs + codecUs + transportUs + leaseUs + traceUs + clockUs + govUs + routingUs
	residual := m.MeanLatency - layersUs

	out := []metric{
		{"store.rdp_us", traced.liveRdpUs, "us"},
		{"store.inp_us", u.inpUs, "us"},
		{"store.out_us", u.outUs, "us"},
		{"store.hold_us", u.holdUs, "us"},
		{"store.ops_per_op", storeOps, "count"},
		{"store.hit_ratio", share(hits, lookups+c("ops.remote_hit")), "ratio"},
		{"store.reinstate_ratio", ratio(c("store.tuples_reinstated"), c("store.tuples_taken")), "ratio"},
		{"store.resident", float64(traced.resident), "count"},
		{"tuple.match_ns", u.matchNs, "ns"},
		{"tuple.encode_ns", u.tupEncNs, "ns"},
		{"tuple.decode_ns", u.tupDecNs, "ns"},
		{"tuple.bytes", u.tupBytes, "bytes"},
		{"wire.encode_ns", u.wireEncNs, "ns"},
		{"wire.decode_ns", u.wireDecNs, "ns"},
		{"wire.frames_per_op", msgs, "count"},
		{"wire.bytes_per_op", po("net.bytes_sent"), "bytes"},
		{"transport.send_us", ratio(float64(tc.sendNs)/1e3, float64(tc.sends)), "us"},
		{"transport.send_busy_us_per_op", sendBusy, "us"},
		{"transport.batch_frames", ratio(c("net.batched_frames"), c("net.batch_flushes")), "count"},
		{"transport.acks_coalesced_ratio", ratio(c("net.acks_coalesced"), c("net.msgs_sent")), "ratio"},
		{"transport.drops_per_op", po("net.msgs_dropped"), "count"},
		{"lease.grant_ns", u.grantNs, "ns"},
		{"lease.grants_per_op", grants, "count"},
		{"lease.refused_ratio", ratio(refused, refused+float64(t.granted)), "ratio"},
		{"lease.active_peak", float64(traced.activePk), "count"},
		{"clock.now_per_op", nows, "count"},
		{"clock.timers_per_op", timers, "count"},
		{"trace.inc_ns", u.incNs, "ns"},
		{"clock.now_ns", u.nowNs, "ns"},
		{"trace.counter_adds_per_op", adds, "count"},
		{"runtime.alloc_bytes_per_op", perOp(float64(t.allocBytes), ops), "bytes"},
		{"runtime.allocs_per_op", perOp(float64(t.mallocs), ops), "count"},
		{"runtime.gc_cpu_share", ratio(t.gcCPU, t.totalCPU), "ratio"},
		{"runtime.sched_latency_p99_us", schedP99(t.sched, t.schedEdges), "us"},
		{"runtime.goroutines_peak", float64(traced.goPeak), "count"},
		{"core.out_p50_us", sub("out", 0.50), "us"},
		{"core.out_p99_us", sub("out", 0.99), "us"},
		{"core.take_p50_us", sub("take", 0.50), "us"},
		{"core.take_p99_us", sub("take", 0.99), "us"},
		{"core.remote_hit_ratio", share(remoteOps, lookups), "ratio"},
		{"core.retries_per_op", po("net.retries"), "count"},
		{"core.hedges_per_op", perOp(float64(t.hedges), ops), "count"},
		{"core.hedge_win_ratio", ratio(float64(t.hedgeWins), float64(t.hedges)), "ratio"},
		{"core.rearms_per_op", po("ops.rearms"), "count"},
		{"discovery.list_hit_ratio", ratio(remoteOps, remoteOps+c("disc.rounds")), "ratio"},
		{"discovery.multicasts_per_op", po("net.multicasts"), "count"},
		{"discovery.demotions", c("disc.demotions"), "count"},
		{"governor.queue_delay_us", float64(traced.queueDelay()) / 1e3, "us"},
		{"governor.shed_ratio", ratio(shed, tops), "ratio"},
		{"governor.deadline_cuts_per_op", perOp(float64(t.deadlineCuts), ops), "count"},
		{"replica.writes_per_op", writes, "count"},
		{"replica.write_unacked_ratio", ratio(c("repl.write_unacked"), c("repl.writes")), "ratio"},
		{"replica.fenced_holds_per_op", po("repl.fenced_holds"), "count"},
		{"routing.place_ns", u.placeNs, "ns"},
		{"layer.store_us_per_op", storeUs, "us"},
		{"layer.codec_us_per_op", codecUs, "us"},
		{"layer.transport_us_per_op", transportUs, "us"},
		{"layer.lease_us_per_op", leaseUs, "us"},
		{"layer.trace_us_per_op", traceUs, "us"},
		{"layer.clock_us_per_op", clockUs, "us"},
		{"layer.governor_us_per_op", govUs, "us"},
		{"layer.routing_us_per_op", routingUs, "us"},
		{"residual_us_per_op", residual, "us"},
		{"traced_mean_latency_us", m.MeanLatency, "us"},
		{"traced_throughput_ops_s", m.Throughput, "ops/s"},
		{"untraced_throughput_ops_s", mu.Throughput, "ops/s"},
		{"trace.overhead_ratio", ratio(mu.Throughput, m.Throughput), "ratio"},
	}

	// Transparency: per-operation counter profiles must agree between the
	// untraced and traced runs, or the wrappers changed the program.
	var problems []string
	for _, name := range []string{"net.msgs_sent", "store.ops", "lease.grants"} {
		a, b := profile(untraced, name), profile(traced, name)
		if !agree(a, b) {
			problems = append(problems, fmt.Sprintf("%s per op: untraced %.4f vs traced %.4f", name, a, b))
		}
	}
	return out, problems
}

// share is a ratio of outcomes to attempts capped at 1: an operation
// straddling a window edge can count its hit inside the window and its
// attempt outside it.
func share(num, den float64) float64 { return math.Min(ratio(num, den), 1) }

// profile is a per-operation count used by the transparency check.
func profile(r *result, name string) float64 {
	ops := r.completed
	switch name {
	case "store.ops":
		s := 0.0
		for _, n := range []string{"ops.out", "ops.rdp", "ops.rd", "ops.inp", "ops.in", "ops.remote_hit"} {
			s += r.ctr(n)
		}
		return perOp(s, ops)
	case "lease.grants":
		return perOp(float64(r.tot.granted), ops)
	}
	return perOp(r.ctr(name), ops)
}

// agree allows profiles to differ by 10% relative, or 0.05 per op absolute
// for small counts (a retry or hedge more or less in a short window).
func agree(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 0.05 || d <= 0.10*math.Max(math.Abs(a), math.Abs(b))
}
