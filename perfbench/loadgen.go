package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ezbft"
)

// runner drives one deployment with the generated command mix and checks
// every result it times.
type runner struct {
	dep      *deployment
	gens     []*generator
	hot      [hotKeys]struct{ submitted, acked atomic.Int64 }
	deadline time.Duration // per command, from when it was due
	// pipelined sends each private GET right behind its PUT, without
	// waiting for the PUT to resolve (see the -readings flag); PUTs still
	// wait for the key's previous read-back.
	pipelined bool

	mu      sync.Mutex
	wrong   int    // results that broke read-your-writes or the counter bounds
	wrongBy [4]int // wrong, by opKind
	// firstWrong describes the first wrong result, for the run's notes.
	firstWrong string
	timeouts   int // commands that missed their deadline
	errored    int // commands that failed otherwise
	fast       int
}

func newRunner(w spec, seed int64, dep *deployment, pipelined bool) *runner {
	r := &runner{dep: dep, deadline: cmdDeadline, pipelined: pipelined}
	lag := readLag
	if pipelined {
		lag = 1
	}
	for c := 0; c < clients; c++ {
		r.gens = append(r.gens, newGenerator(seed, c, privateKeys(w, c), lag))
	}
	return r
}

// phase accumulates one load phase's outcomes.
type phase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latMs     []float64 // every attempted command; failures are +Inf
	lateMs    []float64 // open loop: how late the generator dispatched
	stop      time.Time // closed loop: completions after it do not count
	committed int       // successes (closed loop: those that resolved before stop)
}

// add sums another phase's outcomes into p.
func (p *phase) add(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.committed += q.committed
	p.latMs = append(p.latMs, q.latMs...)
	p.lateMs = append(p.lateMs, q.lateMs...)
}

// exec runs one command due at due, waits for its result or its deadline,
// checks it, and records the outcome in ph.
func (r *runner) exec(c int, o *op, due time.Time, ph *phase) {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(r.deadline))
	defer cancel()
	if o.after != nil && !(r.pipelined && o.kind == opGet) {
		select {
		case <-o.after.done:
		case <-ctx.Done():
		}
	}
	o.after = nil // resolved; let it be collected
	var lo int64
	switch o.kind {
	case opIncr:
		r.hot[o.hot].submitted.Add(1)
	case opHotGet:
		lo = r.hot[o.hot].acked.Load()
	}
	res, fast, err := r.dep.clients[c].Execute(ctx, o.cmd)
	end := time.Now()
	if o.put != nil && r.pipelined {
		// The check needs the PUT's outcome.
		select {
		case <-o.put.done:
		case <-ctx.Done():
		}
	}
	ok := err == nil && r.valid(o, res, lo)
	if o.kind == opIncr && ok {
		r.hot[o.hot].acked.Add(1)
	}
	if o.done != nil {
		o.acked = ok
		close(o.done)
	}

	r.mu.Lock()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		r.timeouts++
	case err != nil:
		r.errored++
	case !ok:
		r.wrong++
		r.wrongBy[o.kind]++
		if r.firstWrong == "" {
			r.firstWrong = describeWrong(o, res, lo, r.hot[o.hot].submitted.Load())
		}
	case fast:
		r.fast++
	}
	r.mu.Unlock()

	ph.mu.Lock()
	ph.attempted++
	if ok {
		ph.latMs = append(ph.latMs, float64(end.Sub(due))/1e6)
		if ph.stop.IsZero() || !end.After(ph.stop) {
			ph.committed++
		}
	} else {
		ph.failed++
		ph.latMs = append(ph.latMs, math.Inf(1))
	}
	ph.mu.Unlock()
}

// valid checks one result. Private GETs must read their PUT's value when
// that PUT was acknowledged (the key has no other writer, and the client
// submitted the PUT first). A hot-key GET must count at least the INCRs
// acknowledged before it was sent and at most those submitted by the time
// it resolved.
func (r *runner) valid(o *op, res ezbft.Result, lo int64) bool {
	switch o.kind {
	case opGet:
		select {
		case <-o.put.done:
		default:
			return true // the PUT is unresolved: no value to expect yet
		}
		return !o.put.acked || (res.OK && bytes.Equal(res.Value, o.put.cmd.Value))
	case opHotGet:
		n := int64(counter(res))
		return n >= lo && n <= r.hot[o.hot].submitted.Load()
	default:
		return res.OK
	}
}

// describeWrong says what a wrong result returned and what the check
// allowed; hi is the INCRs submitted when the result was checked.
func describeWrong(o *op, res ezbft.Result, lo, hi int64) string {
	switch o.kind {
	case opGet:
		return fmt.Sprintf("GET %s read %x (ok=%v), want its PUT's %x", o.cmd.Key, res.Value, res.OK, o.put.cmd.Value)
	case opHotGet:
		return fmt.Sprintf("GET %s read counter %d, want %d..%d", o.cmd.Key, counter(res), lo, hi)
	default:
		return fmt.Sprintf("%v %s returned ok=%v", o.cmd.Op, o.cmd.Key, res.OK)
	}
}

// counter decodes an INCR counter as GET returns it; a key never
// incremented reads as zero.
func counter(res ezbft.Result) uint64 {
	if !res.OK || len(res.Value) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(res.Value)
}

// openLoop sends each client's commands at rate/clients per second for d,
// whether or not earlier ones have resolved, and times each from when it
// was due. It returns once every command has resolved or missed its
// deadline.
func (r *runner) openLoop(rate float64, d time.Duration) *phase {
	ph := &phase{}
	interval := time.Duration(float64(time.Second) * clients / rate)
	n := int(float64(d) / float64(interval))
	start := time.Now()
	var gens, cmds sync.WaitGroup
	for c := 0; c < clients; c++ {
		gens.Add(1)
		go func() {
			defer gens.Done()
			offset := interval * time.Duration(c) / clients
			for i := 0; i < n; i++ {
				due := start.Add(offset + time.Duration(i)*interval)
				time.Sleep(time.Until(due))
				late := float64(time.Since(due)) / 1e6
				o := r.gens[c].nextOp()
				cmds.Add(1)
				go func() {
					defer cmds.Done()
					r.exec(c, o, due, ph)
				}()
				ph.mu.Lock()
				ph.lateMs = append(ph.lateMs, late)
				ph.mu.Unlock()
			}
		}()
	}
	gens.Wait()
	cmds.Wait()
	return ph
}

// closedLoop keeps window commands in flight per client for d.
func (r *runner) closedLoop(window int, d time.Duration) *phase {
	ph := &phase{stop: time.Now().Add(d)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for k := 0; k < window; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(ph.stop) {
					r.exec(c, r.gens[c].nextOp(), time.Now(), ph)
				}
			}()
		}
	}
	wg.Wait()
	return ph
}

// converge waits until every replica reports the same state digest and
// the digests have held for settleFor: equal digests alone can be a
// moment in which no replica has yet executed the last commits.
func (r *runner) converge(limit time.Duration) bool {
	const settleFor = 500 * time.Millisecond
	deadline := time.Now().Add(limit)
	var held []string
	var since time.Time
	for {
		ds := r.dep.digests()
		same := true
		for _, d := range ds[1:] {
			same = same && d == ds[0]
		}
		switch {
		case !same:
			held = nil
		case held == nil || held[0] != ds[0]:
			held, since = ds, time.Now()
		case time.Since(since) >= settleFor:
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// countersWithinBounds checks, after a drain, acknowledged INCRs <= final
// counter <= submitted INCRs on every hot key, reading replica 0's state
// (all replicas agree once converge has returned true).
func (r *runner) countersWithinBounds() bool {
	app := r.dep.apps[0]
	for h := 0; h < hotKeys; h++ {
		n := int64(counter(app.Apply(ezbft.Get(hotKey(h)))))
		if n < r.hot[h].acked.Load() || n > r.hot[h].submitted.Load() {
			return false
		}
	}
	return true
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
