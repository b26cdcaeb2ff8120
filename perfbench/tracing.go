package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/transport"
	"tiamat/wire"
)

// tracer observes a traced run from outside the program: it wraps
// Config.Clock and Config.Endpoint and keeps spans in memory until the
// run ends. The store is deliberately not wrapped (see README.md).
type tracer struct {
	t0        time.Time
	recording atomic.Bool

	mu    sync.Mutex
	spans []span

	nows   atomic.Int64 // clock.Now calls
	timers atomic.Int64 // timer arms: After, AfterFunc, NewTimer, Reset
	sends  atomic.Int64 // Send calls
	sendNs atomic.Int64 // time inside Send
	mcasts atomic.Int64 // Multicast calls
	mcNs   atomic.Int64 // time inside Multicast
	byType [32]atomic.Int64
}

// maxSpans bounds the in-memory span buffer (about 100 bytes a span).
const maxSpans = 200_000

// span is one timed call at a layer boundary. Transport spans carry the
// wire message ID, so the spans of one remote operation group together.
type span struct {
	Name  string `json:"name"`
	Node  string `json:"node"`
	MsgID uint64 `json:"msg_id,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts recording (after set-up, so set-up traffic is not counted).
func (t *tracer) begin() { t.recording.Store(true) }

func (t *tracer) finish() { t.recording.Store(false) }

func (t *tracer) span(name, node string, id uint64, start, end time.Time) {
	if !t.recording.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, node, id, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	}
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- counting clock -------------------------------------------------------

type countingClock struct {
	clock.Clock
	t *tracer
}

func (c countingClock) Now() time.Time {
	c.t.nows.Add(1)
	return c.Clock.Now()
}

func (c countingClock) After(d time.Duration) <-chan time.Time {
	c.t.timers.Add(1)
	return c.Clock.After(d)
}

func (c countingClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.t.timers.Add(1)
	return c.Clock.AfterFunc(d, f)
}

func (c countingClock) NewTimer(d time.Duration) clock.Timer {
	c.t.timers.Add(1)
	return countingTimer{c.Clock.NewTimer(d), c.t}
}

type countingTimer struct {
	clock.Timer
	t *tracer
}

func (ct countingTimer) Reset(d time.Duration) {
	ct.t.timers.Add(1)
	ct.Timer.Reset(d)
}

// clock returns the time source for a node: the wall clock, counted on
// traced runs.
func (e *env) clock() clock.Clock {
	if e.tr == nil {
		return clock.Real{}
	}
	return countingClock{clock.Real{}, e.tr}
}

// --- timing endpoint -------------------------------------------------------

type tracedEndpoint struct {
	transport.Endpoint
	t *tracer
}

func (te *tracedEndpoint) Send(to wire.Addr, m *wire.Message) error {
	start := time.Now()
	err := te.Endpoint.Send(to, m)
	end := time.Now()
	te.t.sends.Add(1)
	te.t.sendNs.Add(int64(end.Sub(start)))
	te.t.byType[m.Type&31].Add(1)
	te.t.span(spanNames[m.Type&31].send, string(te.Addr()), m.ID, start, end)
	return err
}

func (te *tracedEndpoint) Multicast(m *wire.Message) (int, error) {
	start := time.Now()
	n, err := te.Endpoint.Multicast(m)
	end := time.Now()
	te.t.mcasts.Add(1)
	te.t.mcNs.Add(int64(end.Sub(start)))
	te.t.byType[m.Type&31].Add(1)
	te.t.span(spanNames[m.Type&31].multicast, string(te.Addr()), m.ID, start, end)
	return n, err
}

// spanNames are the transport span names per message type, built once so
// the traced send path does not allocate a name per frame.
var spanNames = func() (n [32]struct{ send, multicast string }) {
	for i := range n {
		n[i].send = "send:" + wire.Type(i).String()
		n[i].multicast = "multicast:" + wire.Type(i).String()
	}
	return n
}()

// SetAckGate forwards the optional ack-coalescing gate core.New installs
// by type assertion; without it the wrapper would silently turn ack
// coalescing off and change the program under test.
func (te *tracedEndpoint) SetAckGate(g func(wire.Addr) bool) {
	if ag, ok := te.Endpoint.(interface{ SetAckGate(func(wire.Addr) bool) }); ok {
		ag.SetAckGate(g)
	}
}

// endpoint returns ep, wrapped for timing on traced runs.
func (e *env) endpoint(ep transport.Endpoint) transport.Endpoint {
	if e.tr == nil {
		return ep
	}
	return &tracedEndpoint{ep, e.tr}
}

// tcounts is a reading of the tracer's counters, diffed across a window.
type tcounts struct {
	nows, timers, sends, sendNs, mcasts, mcNs, tops int64
}

func (t *tracer) counts() tcounts {
	return tcounts{
		nows: t.nows.Load(), timers: t.timers.Load(),
		sends: t.sends.Load(), sendNs: t.sendNs.Load(),
		mcasts: t.mcasts.Load(), mcNs: t.mcNs.Load(),
		tops: t.byType[wire.TOp].Load(),
	}
}

func (a tcounts) sub(b tcounts) tcounts {
	return tcounts{a.nows - b.nows, a.timers - b.timers, a.sends - b.sends, a.sendNs - b.sendNs,
		a.mcasts - b.mcasts, a.mcNs - b.mcNs, a.tops - b.tops}
}

func (a tcounts) plus(b tcounts) tcounts {
	return tcounts{a.nows + b.nows, a.timers + b.timers, a.sends + b.sends, a.sendNs + b.sendNs,
		a.mcasts + b.mcasts, a.mcNs + b.mcNs, a.tops + b.tops}
}

// frameMix renders the per-type message counts ("TOp=123 TResult=120 ...").
func (t *tracer) frameMix() map[string]int64 {
	out := map[string]int64{}
	for i := range t.byType {
		if n := t.byType[i].Load(); n > 0 {
			out[wire.Type(i).String()] = n
		}
	}
	return out
}

// --- runtime ---------------------------------------------------------------

// rtSnap holds the runtime/metrics readings a window diffs.
type rtSnap struct {
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/sched/latencies:seconds"}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[2].Value.Float64Histogram()
	}
	return r
}

// schedP99 is the 99th percentile of goroutine scheduling latency over the
// windows, in µs, interpolated linearly within the histogram bucket that
// holds it (the top bucket is open-ended and reports its lower edge).
func schedP99(d []uint64, edges []float64) float64 {
	var total uint64
	for _, n := range d {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := float64(total) * 0.99
	var acc float64
	for i, n := range d {
		if n == 0 {
			continue
		}
		if acc+float64(n) >= want {
			lo, hi := edges[i], edges[i+1]
			if math.IsInf(hi, 1) || math.IsInf(lo, -1) {
				return math.Max(lo, 0) * 1e6
			}
			return (lo + (hi-lo)*(want-acc)/float64(n)) * 1e6
		}
		acc += float64(n)
	}
	return 0
}
