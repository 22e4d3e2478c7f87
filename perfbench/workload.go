package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ezbft"
)

// spec is one workload: a deployment of the real program and the load
// offered to it. BENCHMARK.json and PREDICTIONS.md give each workload's
// reason for being here.
type spec struct {
	name       string
	protocol   ezbft.Protocol
	tcp        bool   // loopback TCP with ECDSA bundles instead of the in-process mesh
	checkpoint uint64 // CheckpointInterval; 0 keeps the protocol default
	durable    bool   // disk store, fsync off (ezbft-server's default)
	preload    int    // keys every replica restores before it starts
	keys       int    // private keys per client (taken from the preload when there is one)
	rate       float64
	window     int
}

// Every workload runs 4 replicas (f=1) with no injected delay and two
// pipelined clients attached to R0 and R1, one per core of the 2-core host
// the rates were sized on. Each open-loop rate is at most a third of the
// workload's closed-loop peak on that host while a neighbour steals a third
// of its CPU, so steal slows commands without tipping the cluster into a
// growing backlog.
//
// pbft-durable runs the disk store without fsync, as ezbft-server does
// unless -fsync is given: every WAL append, group-commit point and snapshot
// write still runs, but no barrier waits on the disk. With fsync on, its
// closed-loop peak was bound by the shared disk (about 40 MB/s of fsynced
// checkpoint snapshots) and halved within an hour as neighbours' I/O rose.
var workloads = []spec{
	{name: "ezbft-mesh", protocol: ezbft.EZBFT, keys: 2048, rate: 1000, window: 16},
	{name: "ezbft-tcp-ecdsa", protocol: ezbft.EZBFT, tcp: true, keys: 2048, rate: 45, window: 8},
	{name: "pbft-durable", protocol: ezbft.PBFT, durable: true, preload: 16384, keys: 8192, rate: 150, window: 16},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// The command mix. Private PUT/GET pairs make up 98% of commands: each GET
// reads back a PUT of the same client issued readLag private commands
// earlier. Every private command is sent only once the previous command on
// its key has resolved (for a GET, its PUT; for a PUT, the read-back of the
// key's last value), so one private key never has two commands in flight.
// The other 2% (the paper's contention point) are INCRs and GETs on a few
// keys both clients share; they interfere across the two command leaders.
const (
	clients     = 2
	valueSize   = 64
	hotKeys     = 4
	hotShare    = 0.02
	readLag     = 64
	cmdDeadline = 3 * time.Second
)

func hotKey(h int) string { return fmt.Sprintf("hot-%d", h) }

func preloadKey(i int) string { return fmt.Sprintf("k%06d", i) }

// privateKeys returns client c's keys: its share of the preloaded key
// space, or a namespace of its own.
func privateKeys(w spec, c int) []string {
	keys := make([]string, 0, w.keys)
	for i := 0; i < w.keys; i++ {
		if w.preload > 0 {
			keys = append(keys, preloadKey(i*clients+c))
		} else {
			keys = append(keys, fmt.Sprintf("c%d-%05d", c, i))
		}
	}
	return keys
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opIncr
	opHotGet
)

// op is one generated command plus what its check needs.
type op struct {
	kind opKind
	cmd  ezbft.Command
	hot  int // hot-key index (opIncr, opHotGet)
	put  *op // opGet: the PUT whose value it must read

	// Private commands only. after is the previous command on the key,
	// which must resolve before this one is sent; done closes once this
	// one has resolved, and acked (written before the close) says whether
	// it succeeded.
	after *op
	done  chan struct{}
	acked bool
}

// generator produces one client's command stream. The stream depends only
// on the seed and the client index, never on timing.
type generator struct {
	mu     sync.Mutex
	rng    *rand.Rand
	keys   []string
	lag    int // private commands between a PUT and its read-back GET
	next   int
	unread []*op          // PUTs not yet read back
	last   map[string]*op // the latest command on each private key
}

func newGenerator(seed int64, c int, keys []string, lag int) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed*7919 + int64(c))), keys: keys, lag: lag,
		last: map[string]*op{}}
}

// private records o as the latest command on its key.
func (g *generator) private(o *op) *op {
	o.after, o.done = g.last[o.cmd.Key], make(chan struct{})
	g.last[o.cmd.Key] = o
	return o
}

func (g *generator) nextOp() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rng.Float64() < hotShare {
		h := g.rng.Intn(hotKeys)
		if g.rng.Intn(2) == 0 {
			return &op{kind: opIncr, hot: h, cmd: ezbft.Incr(hotKey(h))}
		}
		return &op{kind: opHotGet, hot: h, cmd: ezbft.Get(hotKey(h))}
	}
	if len(g.unread) >= g.lag {
		p := g.unread[0]
		g.unread = g.unread[1:]
		return g.private(&op{kind: opGet, put: p, cmd: ezbft.Get(p.cmd.Key)})
	}
	v := make([]byte, valueSize)
	g.rng.Read(v)
	p := g.private(&op{kind: opPut, cmd: ezbft.Put(g.keys[g.next%len(g.keys)], v)})
	g.next++
	g.unread = append(g.unread, p)
	return p
}

// preloadSnapshot builds the state every replica of a preloaded workload
// restores: w.preload keys with seeded 64-byte values, serialized by the
// reference store's own Snapshot.
func preloadSnapshot(w spec, seed int64) ([]byte, error) {
	app := ezbft.NewKVStore()
	snap, ok := app.(ezbft.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("the reference store does not implement Snapshotter")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.preload; i++ {
		v := make([]byte, valueSize)
		rng.Read(v)
		app.Apply(ezbft.Put(preloadKey(i), v))
	}
	return snap.Snapshot(), nil
}

// restoring returns a factory whose applications start from snap.
func restoring(snap []byte) ezbft.ApplicationFactory {
	return func() ezbft.Application {
		app := ezbft.NewKVStore()
		if err := app.(ezbft.Snapshotter).Restore(snap); err != nil {
			// snap came from the same store's Snapshot a moment ago.
			panic(fmt.Sprintf("restoring preload snapshot: %v", err))
		}
		return app
	}
}
