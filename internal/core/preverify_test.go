package core

import (
	"sync/atomic"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// pvRig builds the signing material and a fresh replica for equivalence
// checks between the transport-side pre-verifier and in-loop verification.
type pvRig struct {
	t    *testing.T
	ring *auth.HMACKeyring
	n    int
}

func newPVRig(t *testing.T) *pvRig {
	return &pvRig{t: t, ring: auth.NewHMACKeyring([]byte("preverify-equivalence")), n: 4}
}

func (r *pvRig) replicaAuth(id types.ReplicaID) auth.Authenticator {
	return r.ring.ForNode(types.ReplicaNode(id))
}

func (r *pvRig) clientAuth(id types.ClientID) auth.Authenticator {
	return r.ring.ForNode(types.ClientNode(id))
}

func (r *pvRig) freshReplica(self types.ReplicaID) *Replica {
	return r.replicaWithAuth(self, r.replicaAuth(self))
}

func (r *pvRig) replicaWithAuth(self types.ReplicaID, a auth.Authenticator) *Replica {
	rep, err := NewReplica(ReplicaConfig{
		Self: self, N: r.n, App: kvstore.New(), Auth: a,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return rep
}

// request builds a signed REQUEST from client 5 for leader 1.
func (r *pvRig) request(ts uint64) *Request {
	req := &Request{Cmd: types.Command{Client: 5, Timestamp: ts, Op: types.OpPut, Key: "k", Value: []byte("v")}, Orig: noOrig}
	req.Sig = signBody(r.clientAuth(5), req)
	return req
}

// specOrder builds replica 1's signed first proposal embedding a fresh
// request.
func (r *pvRig) specOrder() *SpecOrder {
	req := r.request(1)
	so := &SpecOrder{
		Owner: 1,
		Inst:  types.InstanceID{Space: 1, Slot: 1},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
		Req:   *req,
	}
	so.CmdDigest = BatchDigest(so.CmdDigests())
	sp := newCmdLog(r.n).space(1)
	sp.extendHash(so.Inst, so.CmdDigest)
	so.LogHash = sp.logHash
	so.Sig = signBody(r.replicaAuth(1), so)
	return so
}

// specReply builds `from`'s signed reply for the given proposal.
func (r *pvRig) specReply(from types.ReplicaID, so *SpecOrder) *SpecReply {
	sr := &SpecReply{
		Owner:     so.Owner,
		Inst:      so.Inst,
		Deps:      so.Deps.Clone(),
		Seq:       so.Seq,
		CmdDigest: so.Req.Cmd.Digest(),
		Client:    so.Req.Cmd.Client,
		Timestamp: so.Req.Cmd.Timestamp,
		Replica:   from,
		Result:    types.Result{OK: true},
		SO:        so,
	}
	sr.Sig = signBody(r.replicaAuth(from), sr)
	return sr
}

// commitFast builds client 5's fast-path COMMITFAST: a 3f+1 certificate in
// which every reply embeds so.
func (r *pvRig) commitFast(so *SpecOrder) *CommitFast {
	cert := make([]*SpecReply, 0, r.n)
	for i := 0; i < r.n; i++ {
		cert = append(cert, r.specReply(types.ReplicaID(i), so))
	}
	return &CommitFast{Client: 5, Inst: so.Inst, Cert: cert}
}

// commit builds client 5's signed slow-path COMMIT with a 2f+1 certificate.
func (r *pvRig) commit() *Commit {
	so := r.specOrder()
	cert := []*SpecReply{r.specReply(0, so), r.specReply(1, so), r.specReply(2, so)}
	c := &Commit{
		Client:    5,
		Timestamp: so.Req.Cmd.Timestamp,
		Inst:      so.Inst,
		Deps:      so.Deps.Clone(),
		Seq:       so.Seq,
		Cert:      cert,
	}
	c.Sig = signBody(r.clientAuth(5), c)
	return c
}

// startOwnerChange builds replica 2's signed vote against replica 1.
func (r *pvRig) startOwnerChange() *StartOwnerChange {
	m := &StartOwnerChange{Suspect: 1, Owner: 1, Replica: 2}
	m.Sig = signBody(r.replicaAuth(2), m)
	return m
}

// pom builds a valid proof of misbehaviour: replica 1 signs the same
// request at two instances.
func (r *pvRig) pom() *POM {
	a := r.specOrder()
	b := r.specOrder()
	b.Inst = types.InstanceID{Space: 1, Slot: 2}
	b.Sig = signBody(r.replicaAuth(1), b)
	return &POM{Suspect: 1, Owner: 1, Client: 5, A: a, B: b}
}

// TestCertEmbeddedSpecOrderMarkRequiresClientSigs pins the meaning of the
// SPECORDER mark: a SPECORDER reached through a commit certificate is only
// marked when the leader signature AND every embedded client signature
// verify. A leader-only mark would let a Byzantine owner launder a forged
// client signature — ship the SPECORDER inside a certificate first (where
// only its leader signature matters), then broadcast the same shared value
// as an ordering frame that skips client-signature verification.
func TestCertEmbeddedSpecOrderMarkRequiresClientSigs(t *testing.T) {
	rig := newPVRig(t)
	pred := InboundVerifier(rig.replicaAuth(3), rig.n)

	so := rig.specOrder()
	so.Req.Sig[0] ^= 0xFF // forge the embedded client signature; the leader signature stays valid
	sr := rig.specReply(0, so)
	pred(&CommitFast{Client: 5, Inst: so.Inst, Cert: []*SpecReply{sr}})

	if so.SigVerified() {
		t.Fatal("certificate pass marked a SPECORDER whose embedded client signature is forged")
	}
	if pred(so) {
		t.Fatal("forged-client-sig SPECORDER accepted as an ordering frame after the certificate pass")
	}
}

// TestPreVerifierLoopEquivalence proves the pool path and the in-loop path
// reject exactly the same corrupted frames: for every case the predicate's
// verdict matches whether a fresh replica's loop drops the (unmarked)
// message as invalid, and every predicate-accepted (marked) message drives
// a second replica to the same stats as the unmarked original.
func TestPreVerifierLoopEquivalence(t *testing.T) {
	rig := newPVRig(t)

	cases := []struct {
		name  string
		mk    func() codec.Message
		valid bool
	}{
		{"request/valid", func() codec.Message { return rig.request(1) }, true},
		{"request/bad-client-sig", func() codec.Message {
			m := rig.request(1)
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"specorder/valid", func() codec.Message { return rig.specOrder() }, true},
		{"specorder/bad-owner-sig", func() codec.Message {
			m := rig.specOrder()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"specorder/bad-embedded-client-sig", func() codec.Message {
			m := rig.specOrder()
			m.Req.Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit/valid", func() codec.Message { return rig.commit() }, true},
		{"commit/bad-client-sig", func() codec.Message {
			m := rig.commit()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit/bad-cert-sig", func() codec.Message {
			m := rig.commit()
			m.Cert[1].Sig[0] ^= 0xFF
			return m
		}, false},
		{"startownerchange/valid", func() codec.Message { return rig.startOwnerChange() }, true},
		{"startownerchange/bad-sig", func() codec.Message {
			m := rig.startOwnerChange()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"pom/valid", func() codec.Message { return rig.pom() }, true},
		{"pom/bad-evidence-sig", func() codec.Message {
			m := rig.pom()
			m.B.Sig[0] ^= 0xFF
			return m
		}, false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The pool verdict, on the verifying replica's authenticator.
			pred := InboundVerifier(rig.replicaAuth(3), rig.n)
			if got := pred(tc.mk()); got != tc.valid {
				t.Fatalf("pre-verifier accepted=%v, want %v", got, tc.valid)
			}

			// The in-loop verdict on a fresh, unmarked copy.
			inLoop := rig.freshReplica(3)
			inLoop.Receive(noopCtx{}, types.ReplicaNode(1), tc.mk())
			dropped := inLoop.Stats().DroppedInvalid > 0
			if dropped == tc.valid {
				t.Fatalf("in-loop dropped=%v, want %v (pool and loop must reject the same frames)", dropped, !tc.valid)
			}

			// A marked (pool-verified) copy must drive a replica to the same
			// observable counters as the unmarked valid original.
			if tc.valid {
				marked := tc.mk()
				if !pred(marked) {
					t.Fatal("predicate rejected the valid frame on the marked pass")
				}
				viaPool := rig.freshReplica(3)
				viaPool.Receive(noopCtx{}, types.ReplicaNode(1), marked)
				if got, want := viaPool.Stats(), inLoop.Stats(); got != want {
					t.Fatalf("marked delivery stats %+v != unmarked delivery stats %+v", got, want)
				}
			}
		})
	}
}

// countingAuth counts Verify calls on the wrapped authenticator.
type countingAuth struct {
	auth.Authenticator
	verifies atomic.Int64
}

func (c *countingAuth) Verify(signer types.NodeID, payload, token []byte) error {
	c.verifies.Add(1)
	return c.Authenticator.Verify(signer, payload, token)
}

// TestPreVerifierBudget pins the pool's signature cost per message: one
// Verify per signature the loop checks unconditionally, none for the
// SPECORDERs a certificate embeds.
func TestPreVerifierBudget(t *testing.T) {
	rig := newPVRig(t)
	f := F(rig.n)

	batched := rig.specOrder()
	for ts := uint64(2); ts <= 3; ts++ {
		batched.Batch = append(batched.Batch, *rig.request(ts))
	}
	batched.CmdDigest = BatchDigest(batched.CmdDigests())
	batched.Sig = signBody(rig.replicaAuth(1), batched)
	// Over TCP every reply decodes its own copy of the SPECORDER.
	fast := rig.commitFast(rig.specOrder())
	for _, sr := range fast.Cert {
		sr.SO = rig.specOrder()
	}

	cases := []struct {
		name string
		msg  codec.Message
		want int64
	}{
		{"commitfast", fast, int64(3*f + 1)},
		{"commit", rig.commit(), int64(1 + 2*f + 1)},
		{"specorder", rig.specOrder(), 1 + 1},
		{"specorder/batch3", batched, 1 + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca := &countingAuth{Authenticator: rig.replicaAuth(3)}
			if !InboundVerifier(ca, rig.n)(tc.msg) {
				t.Fatal("predicate rejected a valid frame")
			}
			if got := ca.verifies.Load(); got != tc.want {
				t.Fatalf("%d Verify calls, want %d", got, tc.want)
			}
		})
	}
}

// TestCertInstallChecksEmbeddedSpecOrder proves that leaving
// certificate-embedded SPECORDERs to the loop keeps every check: a
// certificate whose embedded SPECORDER carries a forged owner signature
// passes the pool (its replies are genuine) but cannot install the
// instance, while a replica that already holds the instance commits it
// without touching the embedded copy.
func TestCertInstallChecksEmbeddedSpecOrder(t *testing.T) {
	rig := newPVRig(t)
	pred := InboundVerifier(rig.replicaAuth(3), rig.n)
	forgedCert := func() (*CommitFast, *SpecOrder) {
		so := rig.specOrder()
		so.Sig[0] ^= 0xFF
		return rig.commitFast(so), so
	}

	cf, forged := forgedCert()
	if !pred(cf) {
		t.Fatal("predicate rejected a certificate whose replies are all genuine")
	}
	if forged.SigVerified() {
		t.Fatal("predicate marked a certificate-embedded SPECORDER")
	}

	// Lacking the instance, the replica must install from the certificate
	// and therefore check — and reject — the forged owner signature.
	lacking := rig.freshReplica(3)
	lacking.Receive(noopCtx{}, types.ClientNode(5), cf)
	if lacking.Stats().DroppedInvalid != 1 {
		t.Fatalf("DroppedInvalid = %d, want 1", lacking.Stats().DroppedInvalid)
	}
	if lacking.log.get(forged.Inst) != nil {
		t.Fatal("forged SPECORDER installed from a certificate")
	}

	// Holding the instance, the replica commits on the certificate alone.
	ca := &countingAuth{Authenticator: rig.replicaAuth(3)}
	holding := rig.replicaWithAuth(3, ca)
	holding.Receive(noopCtx{}, types.ReplicaNode(1), rig.specOrder())
	cf, _ = forgedCert()
	if !pred(cf) {
		t.Fatal("predicate rejected a certificate whose replies are all genuine")
	}
	ca.verifies.Store(0)
	holding.Receive(noopCtx{}, types.ClientNode(5), cf)
	if got := ca.verifies.Load(); got != 0 {
		t.Fatalf("holding replica ran %d verifications on a pre-verified certificate, want 0", got)
	}
	if e := holding.log.get(cf.Inst); e == nil || e.status < StatusCommitted {
		t.Fatal("holding replica did not commit the instance")
	}
	if holding.Stats().DroppedInvalid != 0 {
		t.Fatalf("DroppedInvalid = %d, want 0", holding.Stats().DroppedInvalid)
	}

	// A genuine certificate installs on a replica lacking the instance, for
	// one in-loop owner verification.
	cf = rig.commitFast(rig.specOrder())
	if !pred(cf) {
		t.Fatal("predicate rejected a valid certificate")
	}
	ca = &countingAuth{Authenticator: rig.replicaAuth(3)}
	installer := rig.replicaWithAuth(3, ca)
	installer.Receive(noopCtx{}, types.ClientNode(5), cf)
	if e := installer.log.get(cf.Inst); e == nil || e.status < StatusCommitted {
		t.Fatal("valid certificate did not install the instance")
	}
	if got := ca.verifies.Load(); got != 1 {
		t.Fatalf("install ran %d verifications, want 1 (the embedded owner signature)", got)
	}
	if installer.Stats().DroppedInvalid != 0 {
		t.Fatalf("DroppedInvalid = %d, want 0", installer.Stats().DroppedInvalid)
	}
}

// TestFetchedSpecOrderMarkRequiresClientSigs pins the SPECORDER mark's
// meaning on the client's fetch-on-conflict path: a SPECORDER fetched with
// a valid owner signature is kept as evidence but left unmarked when its
// embedded client signature is forged, so the same shared value cannot
// later pass as an ordering frame without its client signatures checked.
func TestFetchedSpecOrderMarkRequiresClientSigs(t *testing.T) {
	rig := newPVRig(t)
	cl, err := NewClient(ClientConfig{
		ID: 5, N: rig.n, Leader: 1, Auth: rig.clientAuth(5), Driver: &workload.FixedScript{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := cl.Submit(noopCtx{}, types.Command{Op: types.OpPut, Key: "k", Value: []byte("v")})

	so := rig.specOrder() // orders the command just submitted
	so.Req.Sig[0] ^= 0xFF // forge the embedded client signature; the owner signature stays valid
	key := replyKey{inst: so.Inst, batch: so.CmdDigest}
	p := cl.pending[ts]
	p.fetchReqs = map[replyKey]bool{key: true}
	cl.Receive(noopCtx{}, types.ReplicaNode(1), so)

	if p.fetched[key] != so {
		t.Fatal("client dropped a fetched SPECORDER with a valid owner signature")
	}
	if so.SigVerified() {
		t.Fatal("fetch path marked a SPECORDER whose embedded client signature is forged")
	}
	if InboundVerifier(rig.replicaAuth(3), rig.n)(so) {
		t.Fatal("forged-client-sig SPECORDER accepted as an ordering frame after the fetch")
	}
}
