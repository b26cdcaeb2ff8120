// Repository-root benchmarks: one per reproduction experiment (DESIGN.md
// §4) plus micro-benchmarks of the core data structures. The experiment
// benchmarks run the Quick scale of the same harness code that
// cmd/tiamat-bench runs at Full scale; -v prints the resulting tables.
package tiamat_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/internal/harness"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

// benchTable runs an experiment once per b.N and reports its wall time.
func benchTable(b *testing.B, run func(harness.Scale) (*harness.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := run(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			table.Fprint(benchWriter{b})
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func BenchmarkE1Figure1(b *testing.B) {
	benchTable(b, func(harness.Scale) (*harness.Table, error) { return harness.E1Figure1() })
}
func BenchmarkE2ResponderList(b *testing.B)     { benchTable(b, harness.E2ResponderList) }
func BenchmarkE3LeaseReclaim(b *testing.B)      { benchTable(b, harness.E3LeaseReclaim) }
func BenchmarkE4WebProxyScaling(b *testing.B)   { benchTable(b, harness.E4WebProxy) }
func BenchmarkE5Fractal(b *testing.B)           { benchTable(b, harness.E5Fractal) }
func BenchmarkE6FederatedVsTiamat(b *testing.B) { benchTable(b, harness.E6FederatedVsTiamat) }
func BenchmarkE7ReplicaCost(b *testing.B)       { benchTable(b, harness.E7ReplicaCost) }
func BenchmarkE8FloodVsList(b *testing.B)       { benchTable(b, harness.E8FloodVsList) }
func BenchmarkE9Availability(b *testing.B)      { benchTable(b, harness.E9Availability) }
func BenchmarkE10Churn(b *testing.B)            { benchTable(b, harness.E10Churn) }
func BenchmarkT1LocalOps(b *testing.B)          { benchTable(b, harness.T1LocalOps) }
func BenchmarkT2LeaseNegotiation(b *testing.B)  { benchTable(b, harness.T2LeaseNegotiation) }
func BenchmarkX1Backbone(b *testing.B)          { benchTable(b, harness.X1Backbone) }
func BenchmarkX2AdaptiveDiscovery(b *testing.B) { benchTable(b, harness.X2AdaptiveDiscovery) }
func BenchmarkAB1ContactFanout(b *testing.B)    { benchTable(b, harness.AB1ContactFanout) }

// --- micro-benchmarks ----------------------------------------------------

func BenchmarkTupleMatch(b *testing.B) {
	t := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bool(true))
	p := tuple.Tmpl(tuple.String("req"), tuple.FormalInt(), tuple.Any())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Matches(t) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkTupleEncode(b *testing.B) {
	t := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256)))
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.AppendBinary(buf[:0])
	}
	_ = buf
}

func BenchmarkTupleDecode(b *testing.B) {
	data := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256))).AppendBinary(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuple.DecodeTuple(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreOutInp(b *testing.B) {
	s := store.New()
	defer s.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Out(t, time.Time{}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Inp(p); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreRdpDenseBucket reads with a formal key field from one
// dense tag class: the path the key-field index does not narrow.
func BenchmarkStoreRdpDenseBucket(b *testing.B) {
	s := store.New()
	defer s.Close()
	for i := 0; i < 10000; i++ {
		s.Out(tuple.T(tuple.String("k"), tuple.Int(int64(i))), time.Time{})
	}
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Rdp(p); !ok {
			b.Fatal("miss")
		}
	}
}

// keyedStore holds n ("rec", key, 64 B) tuples, the resident set of the
// lookup workload, and returns one keyed template per tuple.
func keyedStore(b *testing.B, n int) (*store.Store, []tuple.Template) {
	s := store.New()
	tmpls := make([]tuple.Template, n)
	payload := make([]byte, 64)
	for i := range tmpls {
		k := tuple.Int(int64(i) * 2654435761)
		if _, err := s.Out(tuple.T(tuple.String("rec"), k, tuple.Bytes(payload)), time.Time{}); err != nil {
			b.Fatal(err)
		}
		tmpls[i] = tuple.Tmpl(tuple.String("rec"), k, tuple.FormalBytes())
	}
	return s, tmpls
}

// BenchmarkStoreRdpKeyed reads by an actual key field among 4096 resident
// tuples of one tag class: the key-field index walks one chain.
func BenchmarkStoreRdpKeyed(b *testing.B) {
	s, tmpls := keyedStore(b, 4096)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Rdp(tmpls[(i*7+13)%len(tmpls)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreInpOutKeyed takes a tuple by key among 4096 resident ones
// and puts it back, keeping the resident set fixed.
func BenchmarkStoreInpOutKeyed(b *testing.B) {
	s, tmpls := keyedStore(b, 4096)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, ok := s.Inp(tmpls[(i*7+13)%len(tmpls)])
		if !ok {
			b.Fatal("miss")
		}
		if _, err := s.Out(t, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeaseGrantCancel(b *testing.B) {
	m := lease.NewManager(lease.DefaultCapacity(), clock.Real{})
	defer m.Close()
	r := lease.Flexible(lease.Terms{Duration: time.Second, MaxRemotes: 4, MaxBytes: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := m.Grant(lease.OpRd, r)
		if err != nil {
			b.Fatal(err)
		}
		l.Cancel()
	}
}

func BenchmarkLocalOutInpThroughInstance(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	ep, err := net.Attach("bench")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := tiamat.New(tiamat.Config{Endpoint: ep})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Out(t, nil); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := inst.Inp(ctx, p, nil); err != nil || !ok {
			b.Fatalf("inp: %v %v", ok, err)
		}
	}
}

func BenchmarkRemoteInpTwoNodes(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()
	a, err := tiamat.New(tiamat.Config{Endpoint: epA})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	bb, err := tiamat.New(tiamat.Config{Endpoint: epB})
	if err != nil {
		b.Fatal(err)
	}
	defer bb.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	ctx := context.Background()
	req := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Out(t, nil); err != nil {
			b.Fatal(err)
		}
		// The remote take round-trips the full protocol: op, hold,
		// result, accept.
		for {
			_, ok, err := bb.Inp(ctx, p, req)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				break
			}
		}
	}
}

// BenchmarkRemoteInpTwoNodesReplicated is the R=2 twin of
// BenchmarkRemoteInpTwoNodes: every out write-through-replicates to the
// ring backup and every take runs the sibling-invalidation round, so
// the delta against the R=1 number is the steady-state cost of leased
// replication on the remote hot path.
func BenchmarkRemoteInpTwoNodesReplicated(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()
	a, err := tiamat.New(tiamat.Config{Endpoint: epA, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	bb, err := tiamat.New(tiamat.Config{Endpoint: epB, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer bb.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	ctx := context.Background()
	req := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 4})
	outReq := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxBytes: 1 << 16, MaxRemotes: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Out(t, outReq); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := bb.Inp(ctx, p, req)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				break
			}
		}
	}
}

func BenchmarkSpacesDiscovery(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	var insts []*tiamat.Instance
	for i := 0; i < 8; i++ {
		ep, _ := net.Attach(wire.Addr(fmt.Sprintf("n%d", i)))
		inst, err := tiamat.New(tiamat.Config{Endpoint: ep})
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst)
	}
	defer func() {
		for _, i := range insts {
			i.Close()
		}
	}()
	net.ConnectAll()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infos, err := insts[0].Spaces(ctx)
		if err != nil || len(infos) != 8 {
			b.Fatalf("spaces: %d %v", len(infos), err)
		}
	}
}
