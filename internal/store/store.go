// Package store is the default local tuple space (paper §3.1.2): a
// lease-aware, sharded, concurrency-safe implementation of the
// space.Space contract with blocking waiters, tentative holds for the
// distributed take protocol, and a janitor that reclaims tuples whose out
// leases have expired.
//
// # Sharding
//
// The space is partitioned into shards so that concurrent operations on
// disjoint tag classes never contend on one lock. A tuple whose first
// field is a string (the conventional type tag) lives in the shard chosen
// by hashing its (arity, tag) key; every other tuple lives in a dedicated
// scan shard. Template routing follows the matching rules:
//
//   - first field is an actual string  → exactly one tag shard
//   - first field is an actual non-string, or arity 0 → the scan shard
//     (a string-lead tuple can never match such a template)
//   - first field is a formal/Any      → all shards
//
// # Key-field index
//
// Within a shard, entries live in one bucket per (arity, tag) key; the
// scan shard keys its buckets by arity alone. A bucket chains its entries
// by the hash of their key field: field 1 in tag shards (field 0 is the
// tag the whole bucket shares) and field 0 in the scan shard. A template
// whose key field is an actual walks the one chain its value hashes to; a
// formal or Any there walks every chain of the bucket, and a formal-lead
// template walks the same-arity buckets of every shard. Every candidate
// is still checked with Matches, so hash collisions cost time, never
// correctness. At most 32 live matches are collected and one is chosen
// at random: Linda only asks that some match be chosen
// nondeterministically, and the cap keeps dense buckets cheap.
//
// Blocking waiters are indexed by (arity, tag) within their shard, so an
// Out wakes only plausible matches instead of scanning every same-arity
// waiter. Waiters for formal-lead templates go on a small global list
// consulted by every Out; an atomic counter lets the common case (no such
// waiter) skip the global lock entirely. Wildcard registration is made
// race-free by registering first and scanning the shards second: an Out
// that misses the registration stores its tuple before the scan can
// reach that shard's lock, and an Out that sees it delivers directly —
// settlement is a per-waiter CAS, so the two paths cannot double-serve.
package store

import (
	"container/heap"
	"errors"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/tuple"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Store implements space.Space.
type Store struct {
	clk  clock.Clock
	met  *trace.Metrics
	seed int64
	// onRemove, if set, observes every finalised removal (take, accepted
	// hold, explicit Remove, janitor reclaim) with the entry's storage
	// id. It is always invoked without any shard lock held.
	onRemove func(id uint64)

	// nTagShards is the number of tag shards (a power of two); the shard
	// slice additionally holds the scan shard at index nTagShards.
	nTagShards int
	shardBits  uint // low bits of a storage id carrying the shard index
	shards     []*shard

	closed     atomic.Bool
	waiterSeq  atomic.Uint64 // FIFO ordering across shard and global lists
	scanCursor atomic.Uint64 // rotates the start shard of wildcard scans

	// Global waiters: blocking templates whose first field is a formal,
	// which can match tuples in any shard. nGlobal lets Out skip the
	// global lock when the list is empty (the common case).
	gmu      sync.Mutex
	gwaiters []*waiter
	nGlobal  atomic.Int64
}

var _ space.Space = (*Store)(nil)

// shard is one independently locked partition of the space.
type shard struct {
	st  *Store
	idx uint64

	mu      sync.Mutex
	rng     *rand.Rand
	closed  bool
	nextSeq uint64 // per-shard entry counter; id = seq<<shardBits | idx
	bytes   int64  // live footprint, maintained incrementally
	byID    map[uint64]*entry
	// buckets and waiters are keyed by (arity, tag). Tag shards key by
	// the full tag; the scan shard keys by arity alone (tag "").
	buckets map[tagKey]chains
	waiters map[tagKey][]*waiter
	expiry  expiryHeap
	stopJan func() bool // pending janitor timer
	janAt   time.Time   // when the pending janitor timer fires
	scan    bool        // the scan shard
}

// chains is one bucket of the key-field index: it maps a key-field hash
// to the head of that key's chain, a circular doubly linked list of
// entries. Emptied buckets are kept: a hot out→in cycle on one tag class
// would otherwise free and reallocate its bucket on every pair, and
// workloads keep tag sets small, so retention is cheaper than churn.
type chains map[uint64]*entry

// keyField is the field whose hash chains a bucket's entries (see the
// package doc).
func (sh *shard) keyField() int {
	if sh.scan {
		return 0
	}
	return 1
}

// tagKey identifies a (arity, leading string tag) index bucket.
type tagKey struct {
	arity int
	tag   string
}

var tagHashSeed = maphash.MakeSeed()

// shardOf maps a tag key to its tag shard index.
func (s *Store) shardOf(tk tagKey) *shard {
	var h maphash.Hash
	h.SetSeed(tagHashSeed)
	_, _ = h.WriteString(tk.tag)
	_ = h.WriteByte(byte(tk.arity))
	return s.shards[h.Sum64()&uint64(s.nTagShards-1)]
}

// scanShard returns the shard holding every tuple without a string tag.
func (s *Store) scanShard() *shard { return s.shards[s.nTagShards] }

// tagOfTuple returns the index key for a tuple, if it has one.
func tagOfTuple(t tuple.Tuple) (tagKey, bool) {
	if t.Arity() == 0 {
		return tagKey{}, false
	}
	f, err := t.Field(0)
	if err != nil {
		return tagKey{}, false
	}
	s, ok := f.StringValue()
	if !ok {
		return tagKey{}, false
	}
	return tagKey{arity: t.Arity(), tag: s}, true
}

// Template routing classes (see package doc).
const (
	classPinned = iota // one tag shard
	classScan          // the scan shard only
	classGlobal        // all shards
)

// classify routes a template: the bucket key it is served from and waits
// under, and which shards its matches can live in. A formal-lead
// template's key is its arity alone, the key of its scan-shard bucket.
func classify(p tuple.Template) (tagKey, int) {
	if p.Arity() == 0 {
		return tagKey{}, classScan
	}
	f, err := p.Field(0)
	if err != nil {
		return tagKey{}, classScan
	}
	if f.Formal() {
		return tagKey{arity: p.Arity()}, classGlobal
	}
	if s, ok := f.StringValue(); ok {
		return tagKey{arity: p.Arity(), tag: s}, classPinned
	}
	// Actual non-string lead: only scan-shard tuples can match.
	return tagKey{arity: p.Arity()}, classScan
}

type entry struct {
	id     uint64
	t      tuple.Tuple
	expiry time.Time // zero = never
	index  int       // position in expiry heap, -1 if absent
	// key is the hash of the key field; prev and next link the entry into
	// that key's chain in bucket b.
	key        uint64
	b          chains
	prev, next *entry
}

// waiter is a one-shot blocking interest. claimed settles the race
// between delivery (an Out or the waiter's own registration scan) and
// Cancel: exactly one claimant touches ch afterwards.
type waiter struct {
	seq     uint64
	p       tuple.Template
	remove  bool
	ch      chan tuple.Tuple
	claimed atomic.Bool
}

// claim reports whether the caller won settlement of this waiter.
func (w *waiter) claim() bool { return w.claimed.CompareAndSwap(false, true) }

// Option configures a Store.
type Option func(*Store)

// WithClock sets the time source (default: wall clock).
func WithClock(c clock.Clock) Option { return func(s *Store) { s.clk = c } }

// WithMetrics attaches a metrics registry.
func WithMetrics(m *trace.Metrics) Option { return func(s *Store) { s.met = m } }

// WithSeed seeds the nondeterministic match selectors (default 1).
func WithSeed(seed int64) Option {
	return func(s *Store) { s.seed = seed }
}

// WithShards sets the number of tag shards, rounded up to a power of two
// and clamped to [1, 256]. The default scales with GOMAXPROCS. One extra
// scan shard always exists for untagged tuples, so WithShards(1) is the
// two-lock near-equivalent of the historical single-mutex store.
func WithShards(n int) Option {
	return func(s *Store) { s.nTagShards = n }
}

// WithRemovalHook observes finalised removals by storage id; the Tiamat
// instance uses it to release out-leases as soon as their tuple is gone
// instead of waiting for the time budget to run out.
func WithRemovalHook(f func(id uint64)) Option {
	return func(s *Store) { s.onRemove = f }
}

// notifyRemoved invokes the removal hook outside all shard locks.
func (s *Store) notifyRemoved(ids ...uint64) {
	if s.onRemove == nil {
		return
	}
	for _, id := range ids {
		s.onRemove(id)
	}
}

// defaultShards scales the tag-shard count with available parallelism.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	return n
}

// New returns an empty Store.
func New(opts ...Option) *Store {
	s := &Store{
		clk:  clock.Real{},
		met:  &trace.Metrics{},
		seed: 1,
	}
	for _, o := range opts {
		o(s)
	}
	if s.nTagShards <= 0 {
		s.nTagShards = defaultShards()
	}
	if s.nTagShards > 256 {
		s.nTagShards = 256
	}
	// Round up to a power of two so tag routing is a mask.
	s.nTagShards = 1 << uint(bits.Len(uint(s.nTagShards-1)))
	// shardBits must index tag shards plus the scan shard.
	s.shardBits = uint(bits.Len(uint(s.nTagShards)))
	s.shards = make([]*shard, s.nTagShards+1)
	for i := range s.shards {
		s.shards[i] = &shard{
			st:      s,
			idx:     uint64(i),
			rng:     rand.New(rand.NewSource(s.seed + int64(i)*7919)),
			byID:    make(map[uint64]*entry),
			buckets: make(map[tagKey]chains),
			waiters: make(map[tagKey][]*waiter),
			scan:    i == s.nTagShards,
		}
	}
	return s
}

// Out implements space.Space.
func (s *Store) Out(t tuple.Tuple, expiry time.Time) (uint64, error) {
	key, tagged := tagOfTuple(t)
	var sh *shard
	if tagged {
		sh = s.shardOf(key)
	} else {
		key = tagKey{arity: t.Arity()}
		sh = s.scanShard()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0, ErrClosed
	}
	if sh.deliverLocked(key, t) {
		sh.mu.Unlock()
		// Consumed by an in-waiter: never stored.
		s.met.Inc(trace.CtrTuplesTaken)
		return 0, nil
	}
	id := sh.insertLocked(t, key, expiry)
	sh.mu.Unlock()
	s.met.Inc(trace.CtrTuplesStored)
	return id, nil
}

// deliverLocked hands t to pending waiters in FIFO (seq) order across the
// shard's (arity, tag) bucket and the global formal-lead list: every
// matching reader gets a copy until a taker consumes it. It reports
// whether a taker consumed the tuple. Caller holds sh.mu.
func (sh *shard) deliverLocked(key tagKey, t tuple.Tuple) (consumed bool) {
	s := sh.st
	ws := sh.waiters[key]
	var gs []*waiter
	globalLocked := false
	if s.nGlobal.Load() > 0 {
		// Lock order is always shard → global; see package doc.
		s.gmu.Lock()
		globalLocked = true
		gs = s.gwaiters
	}
	if len(ws) == 0 && len(gs) == 0 {
		if globalLocked {
			s.gmu.Unlock()
		}
		return false
	}

	// Merge-iterate the two seq-ordered lists, compacting settled waiters
	// as we go. wi/gi are read cursors; wk/gk are write cursors.
	wi, gi, wk, gk := 0, 0, 0, 0
	dropGlobal := 0
	defer func() {
		// Keep the unvisited tails, drop the settled prefix entries.
		if wk != wi {
			wk += copy(ws[wk:], ws[wi:])
			sh.setWaitersLocked(key, ws[:wk])
		}
		if globalLocked {
			if gk != gi {
				gk += copy(gs[gk:], gs[gi:])
				clear(s.gwaiters[gk:])
				s.gwaiters = gs[:gk]
			}
			if dropGlobal > 0 {
				s.nGlobal.Add(int64(-dropGlobal))
			}
			s.gmu.Unlock()
		}
	}()

	for wi < len(ws) || gi < len(gs) {
		var w *waiter
		fromGlobal := false
		switch {
		case wi >= len(ws):
			w, fromGlobal = gs[gi], true
		case gi >= len(gs):
			w = ws[wi]
		case gs[gi].seq < ws[wi].seq:
			w, fromGlobal = gs[gi], true
		default:
			w = ws[wi]
		}
		if w.claimed.Load() {
			// Cancelled or served elsewhere: compact it away.
			if fromGlobal {
				gi++
				dropGlobal++
			} else {
				wi++
			}
			continue
		}
		if !w.p.Matches(t) || !w.claim() {
			// Keep unmatched (and lost-race) waiters registered.
			if fromGlobal {
				gs[gk] = gs[gi]
				gi++
				gk++
			} else {
				ws[wk] = ws[wi]
				wi++
				wk++
			}
			continue
		}
		w.ch <- t
		close(w.ch)
		if fromGlobal {
			gi++
			dropGlobal++
		} else {
			wi++
		}
		if w.remove {
			return true
		}
	}
	return false
}

// setWaitersLocked stores a waiter bucket, removing empty buckets.
func (sh *shard) setWaitersLocked(key tagKey, ws []*waiter) {
	if len(ws) == 0 {
		delete(sh.waiters, key)
		return
	}
	sh.waiters[key] = ws
}

// insertLocked stores t in bucket key and returns its id. Caller holds
// sh.mu.
func (sh *shard) insertLocked(t tuple.Tuple, key tagKey, expiry time.Time) uint64 {
	sh.nextSeq++
	id := sh.nextSeq<<sh.st.shardBits | sh.idx
	b := sh.buckets[key]
	if b == nil {
		b = make(chains)
		sh.buckets[key] = b
	}
	// A bucket's tuples share one arity, so either all have the key field
	// or all hash as 0.
	h, _ := t.FieldHash(sh.keyField())
	e := &entry{id: id, t: t, expiry: expiry, index: -1, key: h, b: b}
	if head := b[h]; head == nil {
		e.prev, e.next = e, e
		b[h] = e
	} else {
		// Append at the tail: the head stays the oldest entry.
		e.prev, e.next = head.prev, head
		head.prev.next = e
		head.prev = e
	}
	sh.byID[id] = e
	sh.bytes += t.Size()
	if !expiry.IsZero() {
		heap.Push(&sh.expiry, e)
		sh.armJanitorLocked()
	}
	return id
}

// maxCandidates caps the live matches a pick collects (see package doc).
const maxCandidates = 32

// picker collects live matches of p, up to maxCandidates, for one
// random choice.
type picker struct {
	p   tuple.Template
	clk clock.Clock
	now time.Time // read at the first candidate that can expire
	n   int
	c   [maxCandidates]*entry
}

// bucket offers the entries of b that p's key field admits, given the
// shard's key field k. It reports whether the candidate set is full.
func (pk *picker) bucket(b chains, k int) bool {
	if len(b) == 0 {
		return false
	}
	h, ok := uint64(0), true
	if k < pk.p.Arity() {
		// Past the arity there is no key field: every entry hashes as 0.
		h, ok = pk.p.FieldHash(k)
	}
	if ok {
		head := b[h]
		return head != nil && pk.chain(b, head)
	}
	for _, head := range b {
		if pk.chain(b, head) {
			return true
		}
	}
	return false
}

// chain offers the chain starting at head. When the candidate set fills,
// the chain's next walk starts after the window this one sampled, so a
// long run of same-key entries cannot starve its tail.
func (pk *picker) chain(b chains, head *entry) bool {
	for e := head; ; {
		if pk.live(e) && pk.p.Matches(e.t) {
			pk.c[pk.n] = e
			pk.n++
			if pk.n == maxCandidates {
				b[e.key] = e.next
				return true
			}
		}
		if e = e.next; e == head {
			return false
		}
	}
}

// live reports whether e has not expired (it may await the janitor).
func (pk *picker) live(e *entry) bool {
	if e.expiry.IsZero() {
		return true
	}
	if pk.now.IsZero() {
		pk.now = pk.clk.Now()
	}
	return e.expiry.After(pk.now)
}

// pickLocked chooses a matching live entry nondeterministically, or nil.
// Caller holds sh.mu.
func (sh *shard) pickLocked(p tuple.Template) *entry {
	pk := picker{p: p, clk: sh.st.clk}
	key, class := classify(p)
	kf := sh.keyField()
	if class == classGlobal && !sh.scan {
		for k, b := range sh.buckets {
			if k.arity == key.arity && pk.bucket(b, kf) {
				break
			}
		}
	} else {
		pk.bucket(sh.buckets[key], kf)
	}
	switch pk.n {
	case 0:
		return nil
	case 1:
		return pk.c[0]
	}
	return pk.c[sh.rng.Intn(pk.n)]
}

// removeLocked unlinks e from every index. Caller holds sh.mu.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.byID, e.id)
	if e.next == e {
		delete(e.b, e.key)
	} else {
		e.prev.next, e.next.prev = e.next, e.prev
		if e.b[e.key] == e {
			e.b[e.key] = e.next
		}
	}
	e.prev, e.next = nil, nil
	sh.bytes -= e.t.Size()
	if e.index >= 0 {
		heap.Remove(&sh.expiry, e.index)
	}
}

// routeShard returns the single shard a pinned or scan-class template
// operates on, or nil for formal-lead templates whose matches may live
// in any shard.
func (s *Store) routeShard(p tuple.Template) *shard {
	key, class := classify(p)
	switch class {
	case classPinned:
		return s.shardOf(key)
	case classScan:
		return s.scanShard()
	}
	return nil
}

// scanStart rotates the starting shard of cross-shard searches so
// repeated wildcard probes spread across the space instead of always
// favouring shard 0.
func (s *Store) scanStart() int {
	return int(s.scanCursor.Add(1)) % len(s.shards)
}

// rdpShard reads one match from sh, if any.
func (sh *shard) rdpShard(p tuple.Template) (tuple.Tuple, bool) {
	sh.mu.Lock()
	if e := sh.pickLocked(p); e != nil {
		t := e.t
		sh.mu.Unlock()
		return t, true
	}
	sh.mu.Unlock()
	return tuple.Tuple{}, false
}

// Rdp implements space.Space.
func (s *Store) Rdp(p tuple.Template) (tuple.Tuple, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.rdpShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if t, ok := s.shards[(start+k)%n].rdpShard(p); ok {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// inpShard takes one match from sh, if any.
func (sh *shard) inpShard(p tuple.Template) (tuple.Tuple, bool) {
	sh.mu.Lock()
	e := sh.pickLocked(p)
	if e == nil {
		sh.mu.Unlock()
		return tuple.Tuple{}, false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	sh.st.met.Inc(trace.CtrTuplesTaken)
	sh.st.notifyRemoved(e.id)
	return e.t, true
}

// Inp implements space.Space.
func (s *Store) Inp(p tuple.Template) (tuple.Tuple, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.inpShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if t, ok := s.shards[(start+k)%n].inpShard(p); ok {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// Wait implements space.Space. If a matching tuple is already present it
// is delivered immediately (removed first when remove is true); otherwise
// the waiter is registered for the next matching Out. This atomicity is
// what makes the blocking rd/in race-free: there is no window between
// "check the space" and "register interest". For pinned and scan
// templates both steps happen under one shard lock; formal-lead
// templates register globally first and then scan, which is equivalent
// (see package doc).
func (s *Store) Wait(p tuple.Template, remove bool) space.Waiter {
	w := &waiter{p: p, remove: remove, ch: make(chan tuple.Tuple, 1)}
	key, class := classify(p)
	if class == classGlobal {
		return s.waitGlobal(w)
	}
	var sh *shard
	if class == classPinned {
		sh = s.shardOf(key)
	} else {
		sh = s.scanShard()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		w.claimed.Store(true)
		close(w.ch)
		return &waiterHandle{s: s, w: w}
	}
	if e := sh.pickLocked(p); e != nil {
		var removedID uint64
		if remove {
			sh.removeLocked(e)
			removedID = e.id
		}
		w.claimed.Store(true)
		w.ch <- e.t
		close(w.ch)
		sh.mu.Unlock()
		if removedID != 0 {
			s.met.Inc(trace.CtrTuplesTaken)
			s.notifyRemoved(removedID)
		}
		return &waiterHandle{s: s, w: w}
	}
	w.seq = s.waiterSeq.Add(1)
	sh.waiters[key] = append(sh.waiters[key], w)
	sh.mu.Unlock()
	return &waiterHandle{s: s, w: w, sh: sh, key: key}
}

// waitGlobal registers a formal-lead waiter on the global list, then
// scans the shards for an already-present match. Registration-first makes
// the check-then-register step race-free without a store-wide lock: any
// Out that stores after our registration sees us on the list; any Out
// that stored before is found by the scan.
func (s *Store) waitGlobal(w *waiter) space.Waiter {
	s.gmu.Lock()
	if s.closed.Load() {
		s.gmu.Unlock()
		w.claimed.Store(true)
		close(w.ch)
		return &waiterHandle{s: s, w: w}
	}
	w.seq = s.waiterSeq.Add(1)
	s.gwaiters = append(s.gwaiters, w)
	s.nGlobal.Add(1)
	s.gmu.Unlock()

	h := &waiterHandle{s: s, w: w, global: true}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		sh := s.shards[(start+k)%n]
		sh.mu.Lock()
		e := sh.pickLocked(w.p)
		if e == nil {
			sh.mu.Unlock()
			continue
		}
		if !w.claim() {
			// A concurrent Out already delivered to us; its tuple is the
			// answer and e stays in the space.
			sh.mu.Unlock()
			return h
		}
		var removedID uint64
		if w.remove {
			sh.removeLocked(e)
			removedID = e.id
		}
		w.ch <- e.t
		close(w.ch)
		sh.mu.Unlock()
		s.dropGlobal(w)
		if removedID != 0 {
			s.met.Inc(trace.CtrTuplesTaken)
			s.notifyRemoved(removedID)
		}
		return h
	}
	return h
}

// dropGlobal removes w from the global list if still present (Out's
// compaction may already have dropped it).
func (s *Store) dropGlobal(w *waiter) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for i, g := range s.gwaiters {
		if g == w {
			s.gwaiters = append(s.gwaiters[:i], s.gwaiters[i+1:]...)
			s.nGlobal.Add(-1)
			return
		}
	}
}

type waiterHandle struct {
	s      *Store
	w      *waiter
	sh     *shard // set for shard-registered waiters
	key    tagKey
	global bool // set for globally registered waiters
}

func (h *waiterHandle) Chan() <-chan tuple.Tuple { return h.w.ch }

func (h *waiterHandle) Cancel() {
	switch {
	case h.sh != nil:
		h.sh.mu.Lock()
		if h.w.claim() {
			close(h.w.ch)
			ws := h.sh.waiters[h.key]
			for i, w := range ws {
				if w == h.w {
					h.sh.setWaitersLocked(h.key, append(ws[:i], ws[i+1:]...))
					break
				}
			}
		}
		h.sh.mu.Unlock()
	case h.global:
		if h.w.claim() {
			close(h.w.ch)
		}
		h.s.dropGlobal(h.w)
	default:
		// Never registered (immediate hit or closed store): nothing to
		// unlink; claim just blocks a late delivery path (there is none).
		h.w.claimed.Store(true)
	}
}

// holdShard tentatively takes one match from sh, if any.
func (sh *shard) holdShard(p tuple.Template) (space.Hold, bool) {
	sh.mu.Lock()
	e := sh.pickLocked(p)
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	return &hold{s: sh.st, e: e}, true
}

// Hold implements space.Space.
func (s *Store) Hold(p tuple.Template) (space.Hold, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.holdShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if h, ok := s.shards[(start+k)%n].holdShard(p); ok {
			return h, true
		}
	}
	return nil, false
}

type hold struct {
	s       *Store
	e       *entry
	settled bool
	mu      sync.Mutex
}

func (h *hold) Tuple() tuple.Tuple { return h.e.t }

func (h *hold) ID() uint64 { return h.e.id }

func (h *hold) Accept() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.settled {
		return
	}
	h.settled = true
	h.s.met.Inc(trace.CtrTuplesTaken)
	h.s.notifyRemoved(h.e.id)
}

func (h *hold) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.settled {
		return
	}
	h.settled = true
	// Reinstate with the original expiry; if it expired while held it
	// will be reclaimed by the janitor path on the next operation.
	if _, err := h.s.Out(h.e.t, h.e.expiry); err == nil {
		h.s.met.Inc(trace.CtrTuplesReinstated)
		// Out counted a store; a reinstatement is not a new tuple.
		h.s.met.Add(trace.CtrTuplesStored, -1)
	}
}

// Remove implements space.Space. The shard index is carried in the id's
// low bits, so removal is a single-shard operation.
func (s *Store) Remove(id uint64) bool {
	idx := id & (1<<s.shardBits - 1)
	if idx >= uint64(len(s.shards)) {
		return false
	}
	sh := s.shards[idx]
	sh.mu.Lock()
	e, ok := sh.byID[id]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	s.notifyRemoved(id)
	return true
}

// Count implements space.Space.
func (s *Store) Count() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.byID)
		sh.mu.Unlock()
	}
	return n
}

// Bytes implements space.Space.
func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Snapshot implements space.Space. Entry references are collected under
// each shard lock and the tuples deep-copied outside it, so diagnostics
// on a large space never stall the hot path for the duration of the copy.
func (s *Store) Snapshot() []tuple.Tuple {
	refs := make([]tuple.Tuple, 0, 64)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.byID {
			refs = append(refs, e.t)
		}
		sh.mu.Unlock()
	}
	out := make([]tuple.Tuple, len(refs))
	for i, t := range refs {
		out[i] = t.Copy()
	}
	return out
}

// Close implements space.Space.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var ws []*waiter
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		if sh.stopJan != nil {
			sh.stopJan()
			sh.stopJan = nil
		}
		for _, list := range sh.waiters {
			ws = append(ws, list...)
		}
		sh.waiters = make(map[tagKey][]*waiter)
		sh.mu.Unlock()
	}
	s.gmu.Lock()
	ws = append(ws, s.gwaiters...)
	s.gwaiters = nil
	s.nGlobal.Store(0)
	s.gmu.Unlock()
	for _, w := range ws {
		if w.claim() {
			close(w.ch)
		}
	}
	return nil
}

// --- expiry management -------------------------------------------------

type expiryHeap []*entry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expiry.Before(h[j].expiry) }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *expiryHeap) Push(x any)        { e := x.(*entry); e.index = len(*h); *h = append(*h, e) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// armJanitorLocked makes the janitor timer fire by the expiry heap's
// head. A pending timer that fires no later than the head is kept, so an
// insert that does not become the earliest expiry arms nothing. Caller
// holds sh.mu.
func (sh *shard) armJanitorLocked() {
	if sh.closed || len(sh.expiry) == 0 {
		return
	}
	head := sh.expiry[0].expiry
	if sh.stopJan != nil {
		if !head.Before(sh.janAt) {
			return
		}
		sh.stopJan()
	}
	d := head.Sub(sh.st.clk.Now())
	if d <= 0 {
		// A virtual clock runs a non-positive AfterFunc synchronously,
		// which would re-enter sh.mu.
		d = time.Nanosecond
	}
	sh.janAt = head
	sh.stopJan = sh.st.clk.AfterFunc(d, sh.reclaim)
}

// reclaim removes the shard's expired tuples and re-arms its janitor.
func (sh *shard) reclaim() {
	s := sh.st
	var reclaimed []uint64
	sh.mu.Lock()
	defer func() {
		sh.mu.Unlock()
		s.notifyRemoved(reclaimed...)
	}()
	if sh.closed {
		return
	}
	now := s.clk.Now()
	for len(sh.expiry) > 0 && !sh.expiry[0].expiry.After(now) {
		e := heap.Pop(&sh.expiry).(*entry)
		e.index = -1 // already popped; keep removeLocked's heap fix-up out
		sh.removeLocked(e)
		s.met.Inc(trace.CtrTuplesReclaimed)
		reclaimed = append(reclaimed, e.id)
	}
	// The pending timer is this one, or one armed while this callback
	// waited for the lock; stop it so at most one stays pending.
	if sh.stopJan != nil {
		sh.stopJan()
		sh.stopJan = nil
	}
	sh.armJanitorLocked()
}

// Reclaimed reports how many tuples the janitor has reclaimed (test aid).
func (s *Store) Reclaimed() int64 { return s.met.Get(trace.CtrTuplesReclaimed) }
