package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
)

// params fixes everything a run does; the same params and seed give the
// same inputs.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	warmup   time.Duration // unmeasured closed-loop traffic before the window
	setups   int           // extra builds per run, timed and torn down, for setup_s
	rounds   int           // fresh clusters per run, each measured for window/rounds
	buckets  int           // each round's window splits into this many buckets
	resident int           // lookup's resident set size
	clients  int           // closed-loop clients (farm: masters and workers each)
	traced   bool
}

func defaultParams(workload string, seed int64, seconds int, traced bool) params {
	return params{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		warmup:   time.Second,
		setups:   10,
		// Each round's cluster must live long enough for its heap to level
		// off: the dedup caches are 4096-entry FIFO maps whose backing
		// tables keep growing for tens of thousands of inserts (Go 1.24
		// maps reclaim deleted slots only by growing). Three 10 s rounds
		// serve over 100k take operations per cluster even at 10k ops/s.
		rounds:   3,
		buckets:  40, // 120 buckets per run: 0.25 s each at 30 s runs
		resident: 4096,
		clients:  runtime.NumCPU(),
		traced:   traced,
	}
}

func (p params) roundWindow() time.Duration { return p.window / time.Duration(p.rounds) }

func (p params) bucketDur() time.Duration { return p.roundWindow() / time.Duration(p.buckets) }

// env is one built cluster plus the run's shared state.
type env struct {
	p       params
	met     *trace.Metrics // one registry shared by every node and network
	insts   []*core.Instance
	closers []func()
	tr      *tracer     // nil on untraced runs
	bad     *violations // shared by every round of a run
	salt    uint64      // seed-derived key scrambler
}

func newEnv(p params, tr *tracer, bad *violations) *env {
	return &env{p: p, met: &trace.Metrics{}, tr: tr, bad: bad, salt: splitmix(uint64(p.seed))}
}

// onClose registers teardown; close runs it in reverse order.
func (e *env) onClose(f func()) { e.closers = append(e.closers, f) }

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// violations collects correctness failures from any goroutine.
type violations struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.first) < 10 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *violations) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

// client is one closed-loop caller. Each client records into its own
// slices, so the hot path takes no lock.
type client struct {
	id     int
	e      *env
	rng    *rand.Rand
	seq    uint64
	ws, we time.Time   // measured window
	lat    []sample    // successful operations that ended in the window
	subs   []subSample // traced runs only: per-layer-call latencies
	tried  int64       // operations that ended in the window
	failed int64       // of those, failed ones
}

// subSample is one timed call inside an operation (out, take), kept by
// traced runs for the core.* percentiles.
type subSample struct {
	kind string
	us   float64
}

func newClient(e *env, id int, ws, we time.Time) *client {
	return &client{
		id:  id,
		e:   e,
		rng: rand.New(rand.NewSource(e.p.seed*7919 + int64(id))),
		ws:  ws,
		we:  we,
	}
}

// key returns this client's next unique key: client and sequence number
// packed, then scrambled by the seed-derived salt (a bijection, so keys
// stay unique across clients).
func (c *client) key() int64 {
	c.seq++
	return int64((uint64(c.id+1)<<40 | c.seq) ^ c.e.salt&^(1<<63))
}

// finish accounts one operation that started at start. ok=false counts it
// as failed (an error, a timeout, or an empty result where a match was
// guaranteed).
func (c *client) finish(start time.Time, ok bool) {
	end := time.Now()
	if end.Before(c.ws) || !end.Before(c.we) {
		return
	}
	c.tried++
	if !ok {
		c.failed++
		return
	}
	c.lat = append(c.lat, sample{end.Sub(c.ws), float64(end.Sub(start)) / 1e3})
}

// sample is one successful operation: when it ended (since the window
// opened) and how long it took, in µs.
type sample struct {
	at time.Duration
	us float64
}

// sub records one timed call inside an operation on traced runs.
func (c *client) sub(kind string, node string, start time.Time) {
	if c.e.tr == nil {
		return
	}
	end := time.Now()
	c.e.tr.span(kind, node, 0, start, end)
	if !end.Before(c.ws) && end.Before(c.we) {
		c.subs = append(c.subs, subSample{kind, float64(end.Sub(start)) / 1e3})
	}
}

// payload derives a key's 64-byte payload from the seed.
func (e *env) payload(key int64) []byte {
	b := make([]byte, 64)
	x := e.salt ^ uint64(key)
	for i := 0; i < len(b); i += 8 {
		x = splitmix(x)
		for j := 0; j < 8; j++ {
			b[i+j] = byte(x >> (8 * j))
		}
	}
	return b
}

// splitmix is the splitmix64 finalizer: a cheap, well-mixed bijection.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// snap is the process and cluster state at one window edge.
type snap struct {
	at       time.Time
	cpu      time.Duration
	mem      runtime.MemStats
	ctr      map[string]int64
	leases   lease.Stats
	rt       rtSnap
	gov      core.GovernorReport
	hedges   uint64
	hedgeWin uint64
	tc       tcounts // traced runs only
}

func (e *env) snapshot() snap {
	s := snap{at: time.Now(), cpu: cpuTime(), ctr: e.met.Snapshot(), rt: readRuntime()}
	if e.tr != nil {
		s.tc = e.tr.counts()
	}
	runtime.ReadMemStats(&s.mem)
	for _, in := range e.insts {
		ls := in.LeaseManager().Stats()
		s.leases.Granted += ls.Granted
		s.leases.Refused += ls.Refused
		g := in.Governor()
		s.gov.DeadlineCuts += g.DeadlineCuts
		s.gov.ShedProbes += g.ShedProbes
		s.gov.ShedWaits += g.ShedWaits
		s.gov.ShedOuts += g.ShedOuts
		s.gov.QuotaSheds += g.QuotaSheds
		s.gov.QueueSheds += g.QueueSheds
		gr := in.Gray()
		s.hedges += gr.Hedges
		s.hedgeWin += gr.HedgeWins
	}
	return s
}

// totals sums what changed between the edges of every round's window.
type totals struct {
	dur             time.Duration
	cpu             time.Duration
	allocBytes      uint64
	mallocs         uint64
	ctr             map[string]int64
	granted         uint64
	refused         uint64
	sheds           uint64
	deadlineCuts    uint64
	hedges          uint64
	hedgeWins       uint64
	tc              tcounts
	gcCPU, totalCPU float64
	sched           []uint64 // scheduling-latency histogram counts
	schedEdges      []float64
}

func (t *totals) add(a, b snap) {
	t.dur += b.at.Sub(a.at)
	t.cpu += b.cpu - a.cpu
	t.allocBytes += b.mem.TotalAlloc - a.mem.TotalAlloc
	t.mallocs += b.mem.Mallocs - a.mem.Mallocs
	if t.ctr == nil {
		t.ctr = map[string]int64{}
	}
	for k, v := range b.ctr {
		t.ctr[k] += v - a.ctr[k]
	}
	t.granted += b.leases.Granted - a.leases.Granted
	t.refused += b.leases.Refused - a.leases.Refused
	t.sheds += b.gov.Sheds() - a.gov.Sheds()
	t.deadlineCuts += b.gov.DeadlineCuts - a.gov.DeadlineCuts
	t.hedges += b.hedges - a.hedges
	t.hedgeWins += b.hedgeWin - a.hedgeWin
	t.tc = t.tc.plus(b.tc.sub(a.tc))
	t.gcCPU += b.rt.gcCPU - a.rt.gcCPU
	t.totalCPU += b.rt.totalCPU - a.rt.totalCPU
	if a.rt.sched != nil && b.rt.sched != nil && len(a.rt.sched.Counts) == len(b.rt.sched.Counts) {
		if t.sched == nil {
			t.sched = make([]uint64, len(b.rt.sched.Counts))
			t.schedEdges = b.rt.sched.Buckets
		}
		for i := range t.sched {
			t.sched[i] += b.rt.sched.Counts[i] - a.rt.sched.Counts[i]
		}
	}
}

// result is everything a run's measured windows produced.
type result struct {
	setups    []float64 // seconds per cluster build
	heaps     []float64 // live heap (bytes) after a forced GC, one per round
	tried     int64
	failed    int64
	completed int64
	rates     []float64 // completions per second in each time bucket of every round
	steal     []float64 // share of the host's CPU time stolen in each of those buckets
	chunkP50  []float64 // per-chunk latency percentiles (µs), see chunkSize
	chunkP90  []float64
	chunkP99  []float64
	latSum    float64 // µs over every successful operation
	subs      map[string][]float64
	tot       totals
	goPeak    int
	activePk  int
	qdSum     []time.Duration // per node index: sampled governor queue delay
	qdN       int
	resident  int     // peak tuples stored on one node, sampled through the windows
	liveRdpUs float64 // traced runs: Rdp on the live node's space, timed after the drain
	bad       *violations
	env       *env // the last round's (closed) cluster
}

// queueDelay is the governor's smoothed serve-queue wait, sampled every
// 10 ms through the windows, time-averaged per node and then averaged over
// the nodes that served remote work (a node that never dequeued reads 0).
func (r *result) queueDelay() time.Duration {
	var sum time.Duration
	n := 0
	for _, v := range r.qdSum {
		if v > 0 {
			sum += v / time.Duration(r.qdN)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ctr is a counter's total change over the measured windows.
func (r *result) ctr(name string) float64 { return float64(r.tot.ctr[name]) }

// run makes p.rounds rounds. Each builds a fresh cluster (timed as set-up),
// drives the workload's closed loops through a warm-up and its share of
// the measured window, drains, checks correctness and tears down. Fresh
// clusters per round keep one cluster's luck (connection and responder
// ordering) from deciding a whole run.
func run(w *workload, p params, tr *tracer) (*result, error) {
	res := &result{subs: map[string][]float64{}, bad: &violations{}}
	// Builds are a few milliseconds each, so setup_s is the median of
	// these timing-only builds and the rounds' own builds together.
	for i := 0; i < p.setups; i++ {
		e := newEnv(p, nil, res.bad)
		t0 := time.Now()
		err := w.build(e)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		e.close()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
	}
	for r := 0; r < p.rounds; r++ {
		if err := runRound(w, p, tr, res, r == p.rounds-1); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runRound(w *workload, p params, tr *tracer, res *result, last bool) error {
	e := newEnv(p, tr, res.bad)
	t0 := time.Now()
	if err := w.build(e); err != nil {
		e.close()
		return fmt.Errorf("%s setup: %w", w.name, err)
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	defer e.close()
	res.env = e
	if tr != nil {
		tr.begin()
		defer tr.finish()
	}

	ws := time.Now().Add(p.warmup)
	we := ws.Add(p.roundWindow())
	ctx, cancel := context.WithDeadline(context.Background(), we)
	defer cancel()
	bgCtx, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()

	var clients []*client
	var cwg, bwg sync.WaitGroup
	loops, background := w.loops(e)
	for _, f := range background {
		bwg.Add(1)
		go func(f func(context.Context)) {
			defer bwg.Done()
			f(bgCtx)
		}(f)
	}
	for i, f := range loops {
		c := newClient(e, i, ws, we)
		clients = append(clients, c)
		cwg.Add(1)
		go func(f loopFunc) {
			defer cwg.Done()
			f(ctx, c)
		}(f)
	}

	// Window edges and peak sampling.
	time.Sleep(time.Until(ws))
	start := e.snapshot()
	tick := time.NewTicker(10 * time.Millisecond)
	steal := newStealMeter(ws)
	next := ws.Add(p.bucketDur())
	for now := time.Now(); now.Before(we); now = time.Now() {
		for !now.Before(next) && len(steal.shares) < p.buckets {
			steal.mark()
			next = next.Add(p.bucketDur())
		}
		res.goPeak = max(res.goPeak, runtime.NumGoroutine())
		active := 0
		if len(res.qdSum) < len(e.insts) {
			res.qdSum = make([]time.Duration, len(e.insts))
		}
		for i, in := range e.insts {
			active += in.LeaseManager().Stats().Active
			res.qdSum[i] += in.Governor().QueueDelay
			// Count includes the space-info tuple every node stores.
			res.resident = max(res.resident, in.LocalSpace().Count()-1)
		}
		res.activePk = max(res.activePk, active)
		res.qdN++
		select {
		case <-tick.C:
		case <-ctx.Done():
		}
	}
	tick.Stop()
	for len(steal.shares) < p.buckets {
		steal.mark()
	}
	res.steal = append(res.steal, steal.shares...)
	res.tot.add(start, e.snapshot())

	// Drain: clients finish their current operation, then background
	// loops (farm workers) are released.
	cwg.Wait()
	bgCancel()
	bwg.Wait()

	var all []sample
	for _, c := range clients {
		res.tried += c.tried
		res.failed += c.failed
		all = append(all, c.lat...)
		for _, s := range c.subs {
			res.subs[s.kind] = append(res.subs[s.kind], s.us)
		}
	}
	res.addSamples(p, all)
	// The per-operation samples are folded into rates and chunk
	// percentiles by now. Drop them before the heap reading: they grow with
	// throughput, so keeping them would make a faster program read as a
	// bigger one. The cluster is still up, so its heap is what is read.
	clients, all = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heaps = append(res.heaps, float64(ms.HeapAlloc))

	if err := w.check(e); err != nil {
		res.bad.add("%v", err)
	}
	if tr != nil && last {
		res.liveRdpUs = liveRdpUs(e)
	}
	return nil
}

// stealMeter splits a round's window into the share of the VM's CPU time
// the hypervisor gave to other guests in each time bucket.
type stealMeter struct {
	at     time.Time
	secs   float64 // -1 when /proc/stat cannot be read
	cpus   int
	shares []float64
}

func newStealMeter(ws time.Time) *stealMeter {
	secs, cpus := stealSeconds()
	return &stealMeter{at: ws, secs: secs, cpus: cpus}
}

// mark closes the current bucket.
func (m *stealMeter) mark() {
	now := time.Now()
	secs, _ := stealSeconds()
	share := 0.0
	if m.secs >= 0 && secs >= 0 && m.cpus > 0 && now.After(m.at) {
		share = (secs - m.secs) / (float64(m.cpus) * now.Sub(m.at).Seconds())
	}
	m.shares = append(m.shares, min(max(share, 0), 1))
	m.at, m.secs = now, secs
}

// chunkSize is how many consecutive completions make one latency chunk:
// enough that its 99th percentile has ten samples beyond it.
const chunkSize = 1000

// addSamples folds one round's successful operations into per-bucket
// completion rates and per-chunk latency percentiles.
func (r *result) addSamples(p params, all []sample) {
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	counts := make([]int, p.buckets)
	lat := make([]float64, 0, len(all))
	for _, s := range all {
		counts[min(int(s.at/p.bucketDur()), p.buckets-1)]++
		lat = append(lat, s.us)
		r.latSum += s.us
	}
	for _, n := range counts {
		r.rates = append(r.rates, float64(n)/p.bucketDur().Seconds())
	}
	r.completed += int64(len(all))
	// The last chunk absorbs a remainder short of a full chunk; a round
	// with fewer completions than one chunk forms a single chunk.
	for i := 0; i < len(lat); i += chunkSize {
		j := i + chunkSize
		if len(lat)-j < chunkSize {
			j = len(lat)
		}
		c := lat[i:j]
		r.chunkP50 = append(r.chunkP50, percentile(c, 0.50))
		r.chunkP90 = append(r.chunkP90, percentile(c, 0.90))
		r.chunkP99 = append(r.chunkP99, percentile(c, 0.99))
		if j == len(lat) {
			break
		}
	}
}

// endToEnd holds the user-visible metrics of a run.
type endToEnd struct {
	SetupS        float64
	Throughput    float64 // ops/s, per second the host did not steal
	RawThroughput float64 // ops/s of wall-clock time, recorded only
	P50, P90      float64 // µs
	P99           float64 // µs
	Samples       int64
	FailRatio     float64
	CPUPerOp      float64 // µs
	HeapMB        float64
	MeanLatency   float64 // µs over every successful operation (traced decomposition)
}

// maxStealShare caps the steal correction: a bucket counts at most twice
// its wall-clock rate, so a nearly fully stolen bucket (a handful of
// completions divided by a sliver of CPU time) cannot set the quartile.
const maxStealShare = 0.5

// grantedRates turns per-bucket completion rates into rates per second of
// CPU time the host actually gave the VM: in a bucket with stolen share s,
// the VM's CPUs ran for (1-s) of its length. Stolen time is time in which
// the benchmark's threads on those CPUs could not run; leaving it in makes
// throughput a reading of the neighbours.
func grantedRates(rates, steal []float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r / (1 - min(steal[i], maxStealShare))
	}
	return out
}

// endToEnd computes the metrics. Wall-clock figures are taken from the
// quieter part of the run: the upper quartile of per-bucket throughput and
// the lower quartile of per-chunk tail percentiles. On a shared host,
// CPU stolen by other tenants arrives in bursts of a fraction of a second
// and inflates whichever buckets it hits; the better quartile filters the
// bursts while a slowdown of the program itself moves every bucket. Steal
// that lasts minutes slows every bucket, so throughput is also counted per
// second of CPU time the host gave the VM (grantedRates). The p50 is the
// median over chunks instead: take's two clients drift between overlapping
// and alternating their operations, which puts per-chunk medians in two
// clusters, and a lower quartile lands on whichever edge the mix favours.
func (r *result) endToEnd(p params) endToEnd {
	var m endToEnd
	m.SetupS = median(r.setups)
	m.Throughput = upperQuartile(grantedRates(r.rates, r.steal))
	m.RawThroughput = upperQuartile(r.rates)
	m.P50 = median(r.chunkP50)
	m.P90 = lowerQuartile(r.chunkP90)
	m.P99 = lowerQuartile(r.chunkP99)
	m.Samples = r.completed
	m.FailRatio = ratio(float64(r.failed), float64(r.tried))
	m.CPUPerOp = perOp(float64(r.tot.cpu)/1e3, r.completed)
	m.HeapMB = median(r.heaps) / 1e6
	m.MeanLatency = perOp(r.latSum, r.completed)
	return m
}
