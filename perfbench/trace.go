package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
)

// The tracer records spans at the seams between the program's modules,
// from wrappers around the calls into each module's interface; nothing
// inside the program changes. Spans are kept in memory and summarized (or
// written out with -spans) when the run ends.

// kind names a span.
type kind uint8

const (
	kHandle     kind = iota // core: one process-loop handler (Init, Receive, OnTimer)
	kSign                   // auth: Sign above auth.Cached
	kSignInner              // auth: Sign below auth.Cached (the real signature)
	kVerify                 // auth: Verify above auth.Cached
	kVerifyReal             // auth: Verify below auth.Cached (a cache miss)
	kSend                   // transport: one Sender.Send or SendAll
	kVerifyMsg              // transport: the VerifyPool predicate on one message
	kApply                  // kvstore: Apply, SpecExecute, PromoteFinal or Rollback
	kDigest                 // kvstore: Digest
	kSnapshot               // kvstore: Snapshot
	kRestore                // kvstore: Restore
	kAppend                 // store: Append
	kSync                   // store: Sync
	kSaveSnap               // store: SaveSnapshot
	kinds
)

var kindNames = [kinds]string{
	"core.handle", "auth.sign", "auth.sign_inner", "auth.verify", "auth.verify_inner",
	"transport.send", "transport.verify", "kvstore.apply", "kvstore.digest",
	"kvstore.snapshot", "kvstore.restore", "store.append", "store.sync", "store.save_snapshot",
}

// childOfHandler says which kinds count against a handler's self time: the
// calls a process loop makes straight into auth, kvstore and store. The
// inner auth spans nest inside the outer ones and are not counted twice.
var childOfHandler = [kinds]bool{
	kSign: true, kVerify: true, kApply: true, kDigest: true, kSnapshot: true,
	kRestore: true, kAppend: true, kSync: true, kSaveSnap: true,
}

// span is one recorded interval. parent indexes the enclosing handler span
// of the same node, or is -1 off the process loop (verify workers, senders
// outside a handler).
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	kind       kind
	node       int8  // replica index, or -1-client for clients
	size       int32 // payload or snapshot bytes, record bytes, or destinations of a send
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	current [4]atomic.Int32 // per replica: the handler span in progress, or -1

	msgs, rejects atomic.Int64

	// Queueing waits, stamped where a message enters a queue and read
	// where it leaves: submit to the verify pool -> predicate start, and
	// deliver to the node -> handler start.
	poolIn, inboxIn sync.Map // waitKey -> time.Time
	waitMu          sync.Mutex
	verifyWaitUs    []float64
	inboxWaitUs     []float64

	onAt, offAt time.Time

	procs []proc.Process // the measured cluster's replicas, unwrapped
}

type waitKey struct {
	to  types.NodeID
	msg codec.Message
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.current {
		t.current[i].Store(-1)
	}
	return t
}

func (t *tracer) start() { t.onAt = time.Now(); t.on.Store(true) }
func (t *tracer) stop()  { t.on.Store(false); t.offAt = time.Now() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// parentOf returns the handler span a loop-side call of node belongs to.
func (t *tracer) parentOf(node int) int32 {
	if node < 0 || node >= len(t.current) {
		return -1
	}
	return t.current[node].Load()
}

func (t *tracer) record(k kind, node int, parent int32, start int64, size int) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, kind: k, node: int8(node), size: int32(size)})
	t.mu.Unlock()
}

// reserve appends a placeholder for a span whose children are recorded
// before it ends, and returns its index.
func (t *tracer) reserve() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{parent: -1, kind: kHandle})
	return int32(len(t.spans) - 1)
}

func (t *tracer) fill(i int32, node int, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[i] = span{start: start, end: end, parent: -1, kind: kHandle, node: int8(node)}
	t.mu.Unlock()
}

func (t *tracer) stamp(m *sync.Map, to types.NodeID, msg codec.Message) {
	if t.on.Load() {
		m.Store(waitKey{to, msg}, time.Now())
	}
}

func (t *tracer) waited(m *sync.Map, to types.NodeID, msg codec.Message, into *[]float64) {
	v, ok := m.LoadAndDelete(waitKey{to, msg})
	if !ok || !t.on.Load() {
		return
	}
	us := float64(time.Since(v.(time.Time))) / 1e3
	t.waitMu.Lock()
	*into = append(*into, us)
	t.waitMu.Unlock()
}

// writeSpans writes every span as one tab-separated line: name, node,
// start_ns, end_ns, parent index, size.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tnode\tstart_ns\tend_ns\tparent\tsize")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], s.node, s.start, s.end, s.parent, s.size)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- proc.Process ---

// tracedProc wraps a replica's process loop: every handler is a span, and
// the loop-side wrappers of the same replica parent their spans to it.
type tracedProc struct {
	t     *tracer
	node  int
	inner proc.Process
}

func (p *tracedProc) ID() types.NodeID { return p.inner.ID() }

func (p *tracedProc) run(fn func()) {
	if !p.t.on.Load() {
		fn()
		return
	}
	idx := p.t.reserve()
	p.t.current[p.node].Store(idx)
	start := p.t.now()
	fn()
	p.t.current[p.node].Store(-1)
	p.t.fill(idx, p.node, start)
}

func (p *tracedProc) Init(ctx proc.Context) { p.run(func() { p.inner.Init(ctx) }) }

func (p *tracedProc) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	p.t.waited(&p.t.inboxIn, p.inner.ID(), msg, &p.t.inboxWaitUs)
	p.run(func() { p.inner.Receive(ctx, from, msg) })
}

func (p *tracedProc) OnTimer(ctx proc.Context, id proc.TimerID) {
	p.run(func() { p.inner.OnTimer(ctx, id) })
}

// --- auth.Authenticator ---

// tracedAuth wraps an authenticator. loop says whether its caller is the
// node's process loop (so spans get a parent) or a verify-pool worker.
type tracedAuth struct {
	t          *tracer
	node       int
	loop       bool
	sign, veri kind
	inner      auth.Authenticator
}

func (a *tracedAuth) parent() int32 {
	if a.loop {
		return a.t.parentOf(a.node)
	}
	return -1
}

func (a *tracedAuth) Scheme() auth.Scheme { return a.inner.Scheme() }

func (a *tracedAuth) Sign(payload []byte) []byte {
	if !a.t.on.Load() {
		return a.inner.Sign(payload)
	}
	start := a.t.now()
	sig := a.inner.Sign(payload)
	a.t.record(a.sign, a.node, a.parent(), start, len(payload))
	return sig
}

func (a *tracedAuth) Verify(signer types.NodeID, payload, token []byte) error {
	if !a.t.on.Load() {
		return a.inner.Verify(signer, payload, token)
	}
	start := a.t.now()
	err := a.inner.Verify(signer, payload, token)
	a.t.record(a.veri, a.node, a.parent(), start, len(payload))
	return err
}

// authPair returns a node's two authenticators, one for its process loop
// and one for its verify pool, each wrapped above and below cache (the
// shared verified-signature memo, or none where the public wiring has
// none).
func (t *tracer) authPair(node int, raw auth.Authenticator, self types.NodeID, cache *auth.VerifyCache) (loop, pool auth.Authenticator) {
	wrap := func(isLoop bool) auth.Authenticator {
		var a auth.Authenticator = &tracedAuth{t: t, node: node, loop: isLoop, sign: kSignInner, veri: kVerifyReal, inner: raw}
		if cache != nil {
			a = auth.Cached(a, self, cache)
		}
		return &tracedAuth{t: t, node: node, loop: isLoop, sign: kSign, veri: kVerify, inner: a}
	}
	return wrap(true), wrap(false)
}

// --- store.Store ---

type tracedStore struct {
	t     *tracer
	node  int
	inner store.Store
}

func (s *tracedStore) timed(k kind, size int, fn func() error) error {
	if !s.t.on.Load() {
		return fn()
	}
	start := s.t.now()
	err := fn()
	s.t.record(k, s.node, s.t.parentOf(s.node), start, size)
	return err
}

func (s *tracedStore) Append(kind uint8, data []byte) (uint64, error) {
	var lsn uint64
	err := s.timed(kAppend, len(data), func() (err error) {
		lsn, err = s.inner.Append(kind, data)
		return err
	})
	return lsn, err
}

func (s *tracedStore) Sync() error { return s.timed(kSync, 0, s.inner.Sync) }

func (s *tracedStore) SaveSnapshot(data []byte) error {
	return s.timed(kSaveSnap, len(data), func() error { return s.inner.SaveSnapshot(data) })
}

func (s *tracedStore) LoadSnapshot() ([]byte, uint64, error)    { return s.inner.LoadSnapshot() }
func (s *tracedStore) Replay(fn func(store.Record) error) error { return s.inner.Replay(fn) }
func (s *tracedStore) Empty() bool                              { return s.inner.Empty() }
func (s *tracedStore) Close() error                             { return s.inner.Close() }

// --- transport ---

// tracedSender wraps a node's outbound transport. On the mesh, a send
// submits straight into the receiver's verify pool, so the send time
// stamps the pool wait too.
type tracedSender struct {
	t     *tracer
	node  int
	mesh  bool
	inner transport.MultiSender
}

func (s *tracedSender) Send(from, to types.NodeID, msg codec.Message) error {
	return s.SendAll(from, []types.NodeID{to}, msg)
}

func (s *tracedSender) SendAll(from types.NodeID, tos []types.NodeID, msg codec.Message) error {
	if !s.t.on.Load() {
		if len(tos) == 1 {
			return s.inner.Send(from, tos[0], msg)
		}
		return s.inner.SendAll(from, tos, msg)
	}
	s.t.msgs.Add(int64(len(tos)))
	if s.mesh {
		for _, to := range tos {
			s.t.stamp(&s.t.poolIn, to, msg)
		}
	}
	start := s.t.now()
	var err error
	if len(tos) == 1 {
		err = s.inner.Send(from, tos[0], msg)
	} else {
		err = s.inner.SendAll(from, tos, msg)
	}
	s.t.record(kSend, s.node, s.t.parentOf(s.node), start, len(tos))
	return err
}

// verifier wraps a VerifyPool predicate for the node self.
func (t *tracer) verifier(node int, self types.NodeID, inner func(codec.Message) bool) func(codec.Message) bool {
	return func(msg codec.Message) bool {
		if !t.on.Load() {
			return inner == nil || inner(msg)
		}
		t.waited(&t.poolIn, self, msg, &t.verifyWaitUs)
		start := t.now()
		ok := inner == nil || inner(msg)
		t.record(kVerifyMsg, node, -1, start, 0)
		if !ok {
			t.rejects.Add(1)
		}
		return ok
	}
}

// deliverer wraps a VerifyPool deliver callback for the node self.
func (t *tracer) deliverer(self types.NodeID, deliver func(types.NodeID, codec.Message)) func(types.NodeID, codec.Message) {
	return func(from types.NodeID, msg codec.Message) {
		t.stamp(&t.inboxIn, self, msg)
		deliver(from, msg)
	}
}

// submitter wraps a TCP peer's inbound callback (the pool's Submit) for
// the node self, stamping the pool wait.
func (t *tracer) submitter(self types.NodeID, submit func(types.NodeID, codec.Message)) func(types.NodeID, codec.Message) {
	return func(from types.NodeID, msg codec.Message) {
		t.stamp(&t.poolIn, self, msg)
		submit(from, msg)
	}
}
