package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ezbft"
	"ezbft/internal/types"
)

// simRun runs a small deterministic simulation and returns everything a
// wrapper could perturb: per-region summaries, completions and digests.
func simRun(t *testing.T, proto ezbft.Protocol, newApp ezbft.ApplicationFactory) string {
	t.Helper()
	c, err := ezbft.NewSimCluster(ezbft.SimConfig{
		Protocol: proto, NewApp: newApp, Seed: 7,
		ClientsPerRegion: 2, MaxRequestsPerClient: 30, Contention: 0.2,
		CheckpointInterval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(60 * time.Second)
	return fmt.Sprintf("%+v|%d|%v", c.Summaries(), c.Completed(), c.StateDigests())
}

// The traced application wrapper must be invisible to the protocols: on
// the deterministic simulator a wrapped factory gives byte-identical
// summaries and digests to the plain one.
func TestWrappedAppTransparentOnSim(t *testing.T) {
	for _, proto := range []ezbft.Protocol{ezbft.EZBFT, ezbft.PBFT} {
		t.Run(string(proto), func(t *testing.T) {
			plain := simRun(t, proto, nil)
			tr := newTracer()
			tr.start()
			node := 0
			var mu sync.Mutex
			wrapped := simRun(t, proto, func() ezbft.Application {
				mu.Lock()
				defer mu.Unlock()
				node++
				return tr.wrapApp(node%4, ezbft.NewKVStore())
			})
			if plain != wrapped {
				t.Fatalf("wrapped run differs:\nplain   %s\nwrapped %s", plain, wrapped)
			}
			if len(tr.spans) == 0 {
				t.Fatal("the wrapped run recorded no spans")
			}
		})
	}
}

type plainApp struct{}

func (plainApp) Apply(types.Command) types.Result { return types.Result{OK: true} }
func (plainApp) Digest() types.Digest             { return types.Digest{} }

type ckptApp struct{ plainApp }

func (ckptApp) Checkpoint(uint64, types.Digest) {}

// The wrapper implements exactly the optional contracts of the inner
// application, no more and no fewer.
func TestWrappedAppKeepsOptionalContracts(t *testing.T) {
	contracts := func(a types.Application) [4]bool {
		_, spec := a.(types.SpeculativeApplication)
		_, conc := a.(types.ConcurrentApplication)
		_, snap := a.(types.Snapshotter)
		_, ck := a.(types.Checkpointer)
		return [4]bool{spec, conc, snap, ck}
	}
	tr := newTracer()
	for _, inner := range []types.Application{plainApp{}, ckptApp{}, ezbft.NewKVStore()} {
		if got, want := contracts(tr.wrapApp(0, inner)), contracts(inner); got != want {
			t.Errorf("%T: wrapped contracts %v, inner %v", inner, got, want)
		}
	}
}

// fakeClient serves a map, with two injected faults: a GET of staleKey
// reads the value from before the latest PUT, and a PUT on hangKey never
// resolves.
type fakeClient struct {
	mu                sync.Mutex
	cur, prev         map[string][]byte
	staleKey, hangKey string
}

func (f *fakeClient) Execute(ctx context.Context, cmd ezbft.Command) (ezbft.Result, bool, error) {
	if cmd.Op == ezbft.OpPut && cmd.Key == f.hangKey {
		<-ctx.Done()
		return ezbft.Result{}, false, ctx.Err()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch cmd.Op {
	case ezbft.OpPut:
		f.prev[cmd.Key] = f.cur[cmd.Key]
		f.cur[cmd.Key] = cmd.Value
		return ezbft.Result{OK: true}, true, nil
	case ezbft.OpGet:
		v := f.cur[cmd.Key]
		if cmd.Key == f.staleKey {
			v = f.prev[cmd.Key]
		}
		return ezbft.Result{OK: v != nil, Value: v}, true, nil
	default: // INCR
		var n uint64
		if v := f.cur[cmd.Key]; len(v) == 8 {
			n = binary.BigEndian.Uint64(v)
		}
		f.cur[cmd.Key] = binary.BigEndian.AppendUint64(nil, n+1)
		return ezbft.Result{OK: true}, true, nil
	}
}

func (f *fakeClient) Retries() uint64 { return 0 }

// A forced stale read and a forced timeout are each counted once, as
// failures against the commands attempted.
func TestFailureAccounting(t *testing.T) {
	w, _ := lookup("ezbft-mesh")
	keys := privateKeys(w, 0)
	fc := &fakeClient{cur: map[string][]byte{}, prev: map[string][]byte{}, staleKey: keys[3], hangKey: keys[5]}
	dep := &deployment{clients: []client{fc, fc}}
	r := newRunner(w, 1, dep, false)
	r.deadline = 50 * time.Millisecond

	// Drive client 0's stream until the GETs of both faulty keys have run.
	ph := &phase{}
	reads := 0
	for reads < 8 {
		o := r.gens[0].nextOp()
		if o.kind == opGet {
			reads++
		}
		r.exec(0, o, time.Now(), ph)
	}
	if r.wrong != 1 || r.timeouts != 1 || r.errored != 0 {
		t.Fatalf("wrong=%d timeouts=%d errors=%d, want 1, 1, 0", r.wrong, r.timeouts, r.errored)
	}
	// The GET behind the hung PUT is not checked against a value that may
	// never have been written, so exactly two commands fail.
	if ph.failed != 2 {
		t.Fatalf("failed=%d of %d attempted, want 2", ph.failed, ph.attempted)
	}
}

// The generator's stream depends on the seed alone.
func TestGeneratorDeterministic(t *testing.T) {
	w, _ := lookup("pbft-durable")
	stream := func(seed int64) []ezbft.Command {
		g := newGenerator(seed, 1, privateKeys(w, 1), readLag)
		var out []ezbft.Command
		for i := 0; i < 500; i++ {
			out = append(out, g.nextOp().cmd)
		}
		return out
	}
	if !reflect.DeepEqual(stream(3), stream(3)) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(stream(3), stream(4)) {
		t.Fatal("different seeds, same stream")
	}
}

// tailP99 takes a median over rounds when each round holds enough samples
// for a p99, and pools rounds that do not.
func TestTailP99Groups(t *testing.T) {
	round := func(n int, v float64) *phase {
		ph := &phase{}
		for i := 0; i < n; i++ {
			ph.latMs = append(ph.latMs, v)
		}
		return ph
	}
	full := []*phase{round(1000, 1), round(1000, 9), round(1000, 2)}
	if got := tailP99(full); got != 2 {
		t.Fatalf("full rounds: p99 %v, want the median round's 2", got)
	}
	thin := []*phase{round(400, 1), round(400, 1), round(400, 50)}
	if got := tailP99(thin); got != 50 {
		t.Fatalf("thin rounds: p99 %v, want the pooled 50", got)
	}
}

// Every private command waits for the previous command on its key, so a
// key is never reused while its last read-back is still in flight.
func TestPrivateCommandsChainPerKey(t *testing.T) {
	g := newGenerator(1, 0, []string{"a", "b"}, 3)
	last := map[string]*op{}
	for i := 0; i < 200; i++ {
		o := g.nextOp()
		if o.done == nil {
			continue // hot-key command
		}
		if o.after != last[o.cmd.Key] {
			t.Fatalf("command %d on %q waits for %v, want the key's previous command", i, o.cmd.Key, o.after)
		}
		last[o.cmd.Key] = o
	}
}
