package main

import "ezbft/internal/types"

// The application wrapper times every call into the replicated
// application. It implements exactly the optional contracts the inner
// application implements, because protocols change behaviour on them
// (ezBFT needs SpeculativeApplication; checkpoints use Snapshotter and
// Checkpointer; the parallel executor needs ConcurrentApplication).

type tracedApp struct {
	t     *tracer
	node  int
	inner types.Application
}

func (a *tracedApp) timed(k kind, fn func() types.Result) types.Result {
	if !a.t.on.Load() {
		return fn()
	}
	start := a.t.now()
	res := fn()
	a.t.record(k, a.node, a.t.parentOf(a.node), start, 0)
	return res
}

func (a *tracedApp) Apply(cmd types.Command) types.Result {
	return a.timed(kApply, func() types.Result { return a.inner.Apply(cmd) })
}

func (a *tracedApp) Digest() types.Digest {
	if !a.t.on.Load() {
		return a.inner.Digest()
	}
	start := a.t.now()
	d := a.inner.Digest()
	a.t.record(kDigest, a.node, a.t.parentOf(a.node), start, 0)
	return d
}

type tracedSpec struct {
	*tracedApp
	spec types.SpeculativeApplication
}

func (a *tracedSpec) SpecExecute(cmd types.Command) types.Result {
	return a.timed(kApply, func() types.Result { return a.spec.SpecExecute(cmd) })
}

func (a *tracedSpec) PromoteFinal(cmd types.Command) types.Result {
	return a.timed(kApply, func() types.Result { return a.spec.PromoteFinal(cmd) })
}

func (a *tracedSpec) Rollback() {
	a.timed(kApply, func() types.Result { a.spec.Rollback(); return types.Result{} })
}

type tracedConc struct {
	*tracedSpec
	conc types.ConcurrentApplication
}

func (a *tracedConc) Footprint(cmd types.Command) []types.Key { return a.conc.Footprint(cmd) }

type snapPart struct {
	app   *tracedApp
	inner types.Snapshotter
}

func (s *snapPart) Snapshot() []byte {
	t := s.app.t
	if !t.on.Load() {
		return s.inner.Snapshot()
	}
	start := t.now()
	b := s.inner.Snapshot()
	t.record(kSnapshot, s.app.node, t.parentOf(s.app.node), start, len(b))
	return b
}

func (s *snapPart) Restore(snap []byte) error {
	var err error
	s.app.timed(kRestore, func() types.Result { err = s.inner.Restore(snap); return types.Result{} })
	return err
}

type ckptPart struct{ inner types.Checkpointer }

func (c *ckptPart) Checkpoint(seq uint64, digest types.Digest) { c.inner.Checkpoint(seq, digest) }

// wrapApp returns a traced application implementing exactly the optional
// contracts inner implements.
func (t *tracer) wrapApp(node int, inner types.Application) types.Application {
	base := &tracedApp{t: t, node: node, inner: inner}
	snapInner, isSnap := inner.(types.Snapshotter)
	ckInner, isCk := inner.(types.Checkpointer)
	sp := &snapPart{app: base, inner: snapInner}
	ck := &ckptPart{inner: ckInner}

	spec, isSpec := inner.(types.SpeculativeApplication)
	if !isSpec {
		switch {
		case isSnap && isCk:
			return struct {
				*tracedApp
				*snapPart
				*ckptPart
			}{base, sp, ck}
		case isSnap:
			return struct {
				*tracedApp
				*snapPart
			}{base, sp}
		case isCk:
			return struct {
				*tracedApp
				*ckptPart
			}{base, ck}
		}
		return base
	}
	s := &tracedSpec{tracedApp: base, spec: spec}
	conc, isConc := inner.(types.ConcurrentApplication)
	if !isConc {
		switch {
		case isSnap && isCk:
			return struct {
				*tracedSpec
				*snapPart
				*ckptPart
			}{s, sp, ck}
		case isSnap:
			return struct {
				*tracedSpec
				*snapPart
			}{s, sp}
		case isCk:
			return struct {
				*tracedSpec
				*ckptPart
			}{s, ck}
		}
		return s
	}
	c := &tracedConc{tracedSpec: s, conc: conc}
	switch {
	case isSnap && isCk:
		return struct {
			*tracedConc
			*snapPart
			*ckptPart
		}{c, sp, ck}
	case isSnap:
		return struct {
			*tracedConc
			*snapPart
		}{c, sp}
	case isCk:
		return struct {
			*tracedConc
			*ckptPart
		}{c, ck}
	}
	return c
}
