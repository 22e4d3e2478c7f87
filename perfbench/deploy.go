package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ezbft"
)

// client is what the load generator drives: the public *ezbft.Client, or
// the traced assembly's equivalent. Execute reports whether the command
// took the protocol's fast path.
type client interface {
	Execute(ctx context.Context, cmd ezbft.Command) (ezbft.Result, bool, error)
	Retries() uint64
}

// deployment is one running cluster and its two load clients.
type deployment struct {
	clients []client
	apps    []ezbft.Application
	close   func()
	// startTrace and stopTrace bracket the measured phases of a traced
	// deployment; nil otherwise.
	startTrace, stopTrace func()
}

func (d *deployment) digests() []string {
	out := make([]string, len(d.apps))
	for i, a := range d.apps {
		out[i] = a.Digest().String()
	}
	return out
}

// publicClient adapts the public pipelined client.
type publicClient struct{ c *ezbft.Client }

func (p publicClient) Execute(ctx context.Context, cmd ezbft.Command) (ezbft.Result, bool, error) {
	f, err := p.c.Submit(ctx, cmd)
	if err != nil {
		return ezbft.Result{}, false, err
	}
	res, err := f.Wait(ctx)
	return res, err == nil && f.FastPath(), err
}

func (p publicClient) Retries() uint64 { return p.c.Stats().Retries }

// deployPublic starts w's cluster through the constructors users call:
// NewLiveCluster for the mesh; GenerateTCPKeys, StartTCPReplica and
// NewTCPClient for TCP.
func deployPublic(w spec, newApp ezbft.ApplicationFactory, storeDir string) (*deployment, error) {
	if w.tcp {
		return deployTCP(w, newApp)
	}
	cfg := ezbft.LiveConfig{Protocol: w.protocol, NewApp: newApp, CheckpointInterval: w.checkpoint}
	if w.durable {
		cfg.StoreDir = storeDir
	}
	lc, err := ezbft.NewLiveCluster(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{close: lc.Close}
	for i := 0; i < 4; i++ {
		d.apps = append(d.apps, lc.App(i))
	}
	for c := 0; c < clients; c++ {
		cl, err := lc.NewClient(ezbft.ReplicaID(c))
		if err != nil {
			lc.Close()
			return nil, err
		}
		d.clients = append(d.clients, publicClient{cl})
	}
	return d, nil
}

// deployTCP runs ezbft-server's defaults (batch 1, protocol-default
// checkpointing) on loopback, every node in this process.
func deployTCP(w spec, newApp ezbft.ApplicationFactory) (*deployment, error) {
	keys, err := ezbft.GenerateTCPKeys(4, clients)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	var reps []*ezbft.TCPReplica
	var pubs []*ezbft.Client
	d.close = func() {
		for _, c := range pubs {
			_ = c.Close()
		}
		for _, r := range reps {
			_ = r.Close()
		}
	}
	for i := 0; i < 4; i++ {
		r, err := ezbft.StartTCPReplica(ezbft.TCPReplicaConfig{
			Protocol: w.protocol, ID: ezbft.ReplicaID(i), N: 4,
			Listen: "127.0.0.1:0", KeyPEM: keys[fmt.Sprintf("R%d", i)], NewApp: newApp,
			CheckpointInterval: w.checkpoint,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		reps = append(reps, r)
		d.apps = append(d.apps, r.App())
	}
	addrs := make(map[ezbft.ReplicaID]string, len(reps))
	for i, r := range reps {
		addrs[ezbft.ReplicaID(i)] = r.Addr()
	}
	for _, r := range reps {
		for id, addr := range addrs {
			r.SetPeer(id, addr)
		}
	}
	for c := 0; c < clients; c++ {
		cl, err := ezbft.NewTCPClient(ezbft.TCPClientConfig{
			Protocol: w.protocol, ID: ezbft.ClientID(c), N: 4, Nearest: ezbft.ReplicaID(c),
			Replicas: addrs, KeyPEM: keys[fmt.Sprintf("c%d", c)],
		})
		if err != nil {
			d.close()
			return nil, err
		}
		pubs = append(pubs, cl)
		d.clients = append(d.clients, publicClient{cl})
	}
	return d, nil
}

// storeDirFor returns a fresh directory for one set-up's disk stores.
func storeDirFor(root string, round int) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("stores-%d-%d", os.Getpid(), round))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}
