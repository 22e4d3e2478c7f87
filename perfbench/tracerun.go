package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"ezbft"
	"ezbft/internal/auth"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// runTraced measures w twice, each for half of -seconds: untraced through
// the public constructors, then traced through the assembly below. The
// per-layer metrics come from the traced run, the runtime and load
// generator ones from the untraced run, and the difference between the two
// runs' end-to-end figures is reported as the tracing overhead.
func runTraced(w spec, o options, out io.Writer) (*result, error) {
	half := o
	half.seconds = o.seconds / 2

	plain, err := runWorkload(w, half, nil)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	traced, err := runWorkload(w, half, t.deploy)
	if err != nil {
		return nil, err
	}
	if o.spans != "" {
		if err := t.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	for _, n := range append(plain.notes, traced.notes...) {
		fmt.Fprintf(out, "# %s\n", n)
	}

	res := &result{
		correct:   plain.correct && traced.correct,
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	t.layers(traced, res)

	ps := plain.stats
	rt := ps.runtime
	res.set("runtime.alloc_kb_per_op", "KB", ratio(rt.allocBytes/1024, float64(ps.okOps())), ps.okOps())
	res.set("runtime.gc_cpu_frac", "frac", ratio(rt.gcCPU, rt.totalCPU), rt.gcs)
	res.set("runtime.gc_pause_p99_ms", "ms", rt.pauseP99*1e3, rt.gcs)
	p99 := plain.ungated["commit_p99_ms"]
	res.set("client.commit_p99_ms", p99.Unit, p99.Value, p99.samples)
	res.set("loadgen.late_p99_ms", "ms", zeroNaN(percentile(ps.open.lateMs, 0.99)), len(ps.open.lateMs))
	pm, tm := plain.metrics, traced.metrics
	res.set("trace.overhead_peak_frac", "frac", 1-ratio(tm["peak_ops"].Value, pm["peak_ops"].Value), tm["peak_ops"].samples)
	res.set("trace.overhead_p50_frac", "frac", ratio(tm["commit_p50_ms"].Value, pm["commit_p50_ms"].Value)-1, tm["commit_p50_ms"].samples)
	res.set("trace.spans", "count", float64(len(t.spans)), len(t.spans))
	return res, nil
}

func (s runStats) okOps() int {
	return s.open.attempted - s.open.failed + s.peak.attempted - s.peak.failed
}

// ratio is a/b, or 0 when b is 0 (a wedged run commits nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a cumulative reading of the Go runtime's counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU, pauseP99 float64
	gcs                                   int
	pauses                                *metrics.Float64Histogram
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds", "/sched/pauses/total/gc:seconds", "/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		allocBytes: float64(ms[0].Value.Uint64()),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
		pauses:     ms[3].Value.Float64Histogram(),
		gcs:        int(ms[4].Value.Uint64()),
	}
}

// since returns the counters accumulated between s0 and s, with the p99
// of the GC pauses in between (upper bucket bound, seconds).
func (s runtimeSample) since(s0 runtimeSample) runtimeSample {
	d := runtimeSample{
		allocBytes: s.allocBytes - s0.allocBytes,
		gcCPU:      s.gcCPU - s0.gcCPU,
		totalCPU:   s.totalCPU - s0.totalCPU,
		gcs:        s.gcs - s0.gcs,
	}
	counts := make([]uint64, len(s.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - s0.pauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		var seen uint64
		for i, c := range counts {
			seen += c
			if float64(seen) >= 0.99*float64(total) {
				d.pauseP99 = s.pauses.Buckets[i+1]
				break
			}
		}
	}
	return d
}

// deploy assembles w's cluster from the same engine and transport
// constructors the public wiring uses, with a tracing wrapper at every
// seam: application, authenticator, store, process loop, sender, verify
// predicate and deliver callback.
func (t *tracer) deploy(w spec, newApp ezbft.ApplicationFactory, storeDir string) (*deployment, error) {
	t.reset()
	eng, err := engine.Lookup(w.protocol)
	if err != nil {
		return nil, err
	}
	if newApp == nil {
		newApp = ezbft.NewKVStore
	}
	a := &assembly{t: t, w: w, eng: eng}
	d := &deployment{close: a.close, startTrace: t.start, stopTrace: t.stop}
	if err := a.authenticators(); err != nil {
		return nil, err
	}
	if !w.tcp {
		a.mesh = transport.NewMesh(0)
	}
	for i := 0; i < 4; i++ {
		app, err := a.replica(i, newApp, storeDir)
		if err != nil {
			a.close()
			return nil, err
		}
		d.apps = append(d.apps, app)
	}
	if w.tcp {
		for _, p := range a.peers {
			for j, q := range a.peers {
				p.SetAddr(types.ReplicaNode(types.ReplicaID(j)), q.Addr())
			}
		}
	}
	for c := 0; c < clients; c++ {
		cl, err := a.client(c)
		if err != nil {
			a.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.procs = nil
	t.msgs.Store(0)
	t.rejects.Store(0)
	t.verifyWaitUs, t.inboxWaitUs = nil, nil
	t.poolIn.Clear()
	t.inboxIn.Clear()
}

// assembly is one traced cluster under construction.
type assembly struct {
	t    *tracer
	w    spec
	eng  engine.Engine
	mesh *transport.Mesh

	raw   map[types.NodeID]auth.Authenticator
	cache *auth.VerifyCache

	nodes  []*transport.LiveNode
	pools  []*transport.VerifyPool
	peers  []*transport.TCPPeer
	stores []store.Store
}

// authenticators derives every node's raw authenticator the way the
// public wiring does: an HMAC provider with one shared verify cache on
// the mesh, per-node ECDSA PEM bundles and no cache on TCP.
func (a *assembly) authenticators() error {
	a.raw = map[types.NodeID]auth.Authenticator{}
	var ids []types.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, types.ReplicaNode(types.ReplicaID(i)))
	}
	for c := 0; c < clients; c++ {
		ids = append(ids, types.ClientNode(types.ClientID(c)))
	}
	if !a.w.tcp {
		p, err := auth.NewProvider(auth.SchemeHMAC, ids)
		if err != nil {
			return err
		}
		a.cache = auth.NewVerifyCache(0)
		for _, id := range ids {
			if a.raw[id], err = p.ForNode(id); err != nil {
				return err
			}
		}
		return nil
	}
	bundles, err := ezbft.GenerateTCPKeys(4, clients)
	if err != nil {
		return err
	}
	for _, id := range ids {
		ring, err := auth.ParseECDSAKeyringPEM(bundles[id.String()])
		if err != nil {
			return err
		}
		if a.raw[id], err = ring.ForNode(id); err != nil {
			return err
		}
	}
	return nil
}

// attach puts a node behind a traced verify pool on the mesh or on a new
// TCP peer; it returns the peer (nil on the mesh).
func (a *assembly) attach(node *transport.LiveNode, self types.NodeID, idx int, poolAuth auth.Authenticator, addrs map[types.NodeID]string) (*transport.TCPPeer, error) {
	t := a.t
	pool := transport.NewVerifyPool(0, t.verifier(idx, self, a.eng.InboundVerifier(poolAuth, 4)),
		t.deliverer(self, node.Deliver))
	a.pools = append(a.pools, pool)
	if a.mesh != nil {
		a.mesh.AttachPool(node, pool)
		node.SetSender(&tracedSender{t: t, node: idx, mesh: true, inner: a.mesh})
		return nil, nil
	}
	peer, err := transport.NewTCPPeer(self, "127.0.0.1:0", addrs, t.submitter(self, pool.Submit))
	if err != nil {
		return nil, err
	}
	a.peers = append(a.peers, peer)
	node.SetSender(&tracedSender{t: t, node: idx, inner: peer})
	return peer, nil
}

func (a *assembly) replica(i int, newApp ezbft.ApplicationFactory, storeDir string) (ezbft.Application, error) {
	t, w := a.t, a.w
	self := types.ReplicaNode(types.ReplicaID(i))
	loopAuth, poolAuth := t.authPair(i, a.raw[self], self, a.cache)
	app := newApp()
	var st store.Store
	if w.durable {
		s, err := store.Open(store.BackendDisk, filepath.Join(storeDir, fmt.Sprintf("r%d", i)), false)
		if err != nil {
			return nil, err
		}
		a.stores = append(a.stores, s)
		st = &tracedStore{t: t, node: i, inner: s}
	}
	opts := engine.ReplicaOptions{
		Self: types.ReplicaID(i), N: 4, App: t.wrapApp(i, app), Auth: loopAuth,
		CheckpointInterval: w.checkpoint, Store: st,
	}
	if !w.tcp {
		opts.LatencyBound = 500 * time.Millisecond // as NewLiveCluster sets it
	}
	rep, err := a.eng.NewReplica(opts)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, rep)
	node := transport.NewLiveNode(&tracedProc{t: t, node: i, inner: rep}, nil, int64(i)+1)
	if _, err := a.attach(node, self, i, poolAuth, map[types.NodeID]string{}); err != nil {
		return nil, err
	}
	a.nodes = append(a.nodes, node)
	node.Start()
	return app, nil
}

func (a *assembly) client(c int) (*tracedClient, error) {
	t := a.t
	self := types.ClientNode(types.ClientID(c))
	idx := -1 - c
	loopAuth, poolAuth := t.authPair(idx, a.raw[self], self, a.cache)
	tc := &tracedClient{waiters: map[uint64]*tracedFuture{}}
	bound := 200 * time.Millisecond // NewLiveCluster's client bound
	if a.w.tcp {
		bound = 500 * time.Millisecond // NewTCPClient's default
	}
	inner, err := a.eng.NewClient(engine.ClientOptions{
		ID: types.ClientID(c), N: 4, Nearest: types.ReplicaID(c), Auth: loopAuth,
		Driver: tc, LatencyBound: bound,
	})
	if err != nil {
		return nil, err
	}
	tc.inner = inner
	tc.node = transport.NewLiveNode(inner, nil, int64(c)+1000)
	addrs := map[types.NodeID]string{}
	for i, p := range a.peers {
		addrs[types.ReplicaNode(types.ReplicaID(i))] = p.Addr()
	}
	peer, err := a.attach(tc.node, self, idx, poolAuth, addrs)
	if err != nil {
		return nil, err
	}
	if peer != nil {
		for id := range addrs {
			if err := peer.Connect(id); err != nil {
				return nil, err
			}
		}
	}
	a.nodes = append(a.nodes, tc.node)
	tc.node.Start()
	return tc, nil
}

func (a *assembly) close() {
	for _, n := range a.nodes {
		n.Stop()
	}
	for _, p := range a.peers {
		_ = p.Close()
	}
	for _, p := range a.pools {
		p.Close()
	}
	for _, s := range a.stores {
		_ = s.Close()
	}
	a.nodes, a.peers, a.pools, a.stores = nil, nil, nil, nil
}

// tracedClient is the public Client's future bridge rebuilt over an
// engine client the assembly owns.
type tracedClient struct {
	node  *transport.LiveNode
	inner engine.Client

	mu      sync.Mutex
	waiters map[uint64]*tracedFuture
}

type tracedFuture struct {
	done chan struct{}
	comp workload.Completion
}

var errStopped = errors.New("client stopped")

func (c *tracedClient) Execute(ctx context.Context, cmd ezbft.Command) (ezbft.Result, bool, error) {
	f := &tracedFuture{done: make(chan struct{})}
	err := c.node.InjectAbort(ctx.Done(), func(pctx proc.Context) {
		ts := c.inner.Submit(pctx, cmd)
		c.mu.Lock()
		c.waiters[ts] = f
		c.mu.Unlock()
	})
	if errors.Is(err, transport.ErrAborted) {
		return ezbft.Result{}, false, ctx.Err()
	}
	if err != nil {
		return ezbft.Result{}, false, errStopped
	}
	select {
	case <-f.done:
		return f.comp.Result, f.comp.FastPath, nil
	case <-ctx.Done():
		return ezbft.Result{}, false, ctx.Err()
	case <-c.node.Done():
		return ezbft.Result{}, false, errStopped
	}
}

func (c *tracedClient) Retries() uint64 {
	ch := make(chan uint64, 1)
	if err := c.node.Inject(func(proc.Context) { ch <- c.inner.ClientStats().Retries }); err != nil {
		return 0
	}
	select {
	case r := <-ch:
		return r
	case <-c.node.Done():
		return 0
	}
}

func (c *tracedClient) Start(proc.Context, workload.Submitter)                 {}
func (c *tracedClient) OnTimer(proc.Context, workload.Submitter, proc.TimerID) {}

func (c *tracedClient) Completed(_ proc.Context, _ workload.Submitter, comp workload.Completion) {
	c.mu.Lock()
	f := c.waiters[comp.Cmd.Timestamp]
	delete(c.waiters, comp.Cmd.Timestamp)
	c.mu.Unlock()
	if f != nil {
		f.comp = comp
		close(f.done)
	}
}

// layers turns the traced run's spans, counters and the replicas' own
// statistics (read after the cluster stopped) into per-layer metrics.
func (t *tracer) layers(traced, res *result) {
	st := traced.stats
	okOps := st.okOps()
	ops := float64(max(okOps, 1))
	wall := t.offAt.Sub(t.onAt).Seconds()

	var (
		n       [kinds]int
		dur     [kinds]float64 // µs
		size    [kinds]float64
		durs    [kinds][]float64
		busy    = map[int8]float64{}
		childUs float64
	)
	for _, s := range t.spans {
		us := float64(s.end-s.start) / 1e3
		n[s.kind]++
		dur[s.kind] += us
		size[s.kind] += float64(s.size)
		durs[s.kind] = append(durs[s.kind], us)
		if s.kind == kHandle {
			busy[s.node] += us
		}
		if childOfHandler[s.kind] && s.parent >= 0 {
			childUs += us
		}
	}
	busyMax := 0.0
	for node, us := range busy {
		if node >= 0 && us > busyMax {
			busyMax = us
		}
	}
	per := func(x float64) float64 { return x / ops }

	res.set("auth.sign_per_op", "count", per(float64(n[kSign])), n[kSign])
	res.set("auth.sign_us_per_op", "us", per(dur[kSignInner]), n[kSignInner])
	res.set("auth.verify_per_op", "count", per(float64(n[kVerify])), n[kVerify])
	res.set("auth.verify_us_per_op", "us", per(dur[kVerifyReal]), n[kVerifyReal])
	res.set("auth.cache_hit_frac", "frac", 1-ratio(float64(n[kVerifyReal]), float64(n[kVerify])), n[kVerify])

	msgs := float64(t.msgs.Load())
	res.set("transport.msgs_per_op", "count", per(msgs), int(msgs))
	res.set("transport.send_us_per_op", "us", per(dur[kSend]), n[kSend])
	res.set("transport.verify_calls_per_op", "count", per(float64(n[kVerifyMsg])), n[kVerifyMsg])
	res.set("transport.verify_us_per_op", "us", per(dur[kVerifyMsg]), n[kVerifyMsg])
	res.set("transport.verify_wait_p99_us", "us", zeroNaN(percentile(t.verifyWaitUs, 0.99)), len(t.verifyWaitUs))
	res.set("transport.verify_reject_frac", "frac", ratio(float64(t.rejects.Load()), float64(n[kVerifyMsg])), n[kVerifyMsg])
	res.set("transport.inbox_wait_p99_us", "us", zeroNaN(percentile(t.inboxWaitUs, 0.99)), len(t.inboxWaitUs))

	handlerUs := 0.0
	for node, us := range busy {
		if node >= 0 {
			handlerUs += us
		}
	}
	rs := replicaCounters(t.procs)
	res.set("core.handled_per_op", "count", per(float64(n[kHandle])), n[kHandle])
	res.set("core.self_us_per_op", "us", per(handlerUs-childUs), n[kHandle])
	res.set("core.busy_max_frac", "frac", busyMax/1e6/max(wall, 1e-9), len(busy))
	res.set("core.dropped_invalid", "count", rs.dropped, 4)
	res.set("core.view_changes", "count", rs.viewChanges, 4)
	res.set("core.slow_commit_frac", "frac", ratio(rs.slow, rs.fast+rs.slow), int(rs.fast+rs.slow))

	res.set("engine.ops_per_batch", "count", ratio(rs.batchItems, rs.batches), int(rs.batches))
	res.set("engine.checkpoints_per_kop", "count", rs.checkpoints/4/(ops/1000), int(rs.checkpoints))

	res.set("kvstore.apply_us_per_op", "us", per(dur[kApply]), n[kApply])
	res.set("kvstore.digest_us_p50", "us", zeroNaN(percentile(durs[kDigest], 0.5)), n[kDigest])
	res.set("kvstore.snapshot_us_p50", "us", zeroNaN(percentile(durs[kSnapshot], 0.5)), n[kSnapshot])
	res.set("kvstore.snapshot_kb", "KB", ratio(size[kSnapshot], float64(n[kSnapshot]))/1024, n[kSnapshot])

	res.set("store.appends_per_op", "count", per(float64(n[kAppend])), n[kAppend])
	res.set("store.append_kb_per_op", "KB", per(size[kAppend])/1024, n[kAppend])
	res.set("store.syncs_per_op", "count", per(float64(n[kSync])), n[kSync])
	res.set("store.sync_us_p99", "us", zeroNaN(percentile(durs[kSync], 0.99)), n[kSync])
	res.set("store.snapshot_us_p50", "us", zeroNaN(percentile(durs[kSaveSnap], 0.5)), n[kSaveSnap])

	r := st.runner
	res.set("client.fast_frac", "frac", per(float64(r.fast)), okOps)
	res.set("client.retries_per_op", "count", per(float64(st.retries)), okOps)
	res.set("client.wrong_results", "count", float64(r.wrong), st.open.attempted+st.peak.attempted)
	res.set("client.timeouts", "count", float64(r.timeouts), st.open.attempted+st.peak.attempted)
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// counters are protocol statistics summed over the four replicas.
type counters struct {
	dropped, viewChanges, fast, slow, batches, batchItems, checkpoints float64
}

// replicaCounters reads the replicas' statistics; the cluster has stopped,
// so the process loops no longer touch them.
func replicaCounters(procs []proc.Process) counters {
	var c counters
	for _, p := range procs {
		switch r := engine.Unwrap(p).(type) {
		case *core.Replica:
			s := r.Stats()
			c.dropped += float64(s.DroppedInvalid)
			c.viewChanges += float64(s.OwnerChanges)
			c.fast += float64(s.FastCommits)
			c.slow += float64(s.SlowCommits)
			c.batches += float64(s.Batches)
			c.batchItems += float64(s.BatchedRequests)
			c.checkpoints += float64(s.Checkpoints)
		case *pbft.Replica:
			s := r.Stats()
			b := r.BatcherStats()
			c.dropped += float64(s.DroppedInvalid)
			c.viewChanges += float64(s.ViewChanges)
			c.batches += float64(b.Flushes)
			c.batchItems += float64(b.Items)
			c.checkpoints += float64(s.Checkpoints)
		}
	}
	return c
}
