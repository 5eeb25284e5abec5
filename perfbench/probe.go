package main

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
)

// The traced run wraps each layer's public boundary from outside the
// program: the App the engine drives (app), the Process the engine hands to
// App.Init (mpi), the engine's capture and recovery fault points (core), the
// WaveStorage and its cold tier (checkpoint). Every span of a rank is
// recorded on that rank's goroutine into the rank's own slice. Only the
// recovery instants and the storage counters, reported from other
// goroutines, are shared, under a mutex or in atomics.

// layer names one kind of span.
type layer uint8

const (
	layerRank     layer = iota // root: factory call to the end of Verify
	layerInit                  // App.Init
	layerStep                  // App.Step
	layerPost                  // Send, Isend, Irecv
	layerWait                  // Wait*, Test*, Recv, Probe, Iprobe
	layerColl                  // collectives
	layerSnapshot              // App.Snapshot
	layerRestore               // App.Restore
	layerVerify                // App.Verify
	layerCapture               // pre-capture to post-capture
	layerBarrier               // wave barriers around a capture
	layerRecovery              // engine time next to a restore
	numLayers
)

var layerNames = [numLayers]string{
	"core.other", "app.init", "app.step_self", "mpi.post", "mpi.wait", "mpi.coll",
	"app.snapshot", "app.restore", "app.verify", "core.capture", "core.barrier", "core.recovery",
}

// span is one interval on a rank's goroutine. Times are nanoseconds since
// the probes were created.
type span struct {
	start, end int64
	parent     int32 // index of the parent span, -1 for the root
	layer      layer
}

// rankTrace is the span log of one rank; only the rank's goroutine touches
// it while the run is in flight.
type rankTrace struct {
	spans []span
	open  []int32 // stack of open spans

	// The gap before the next top-level span is classified by what closed
	// last: a capture or a restore.
	lastEnd  int64
	lastKind layer

	maxIter   int // highest iteration stepped, to count re-execution
	reexec    int
	restores  int
	snapBytes int64
}

func (rt *rankTrace) begin(l layer, at int64) {
	parent := int32(-1)
	if n := len(rt.open); n > 0 {
		parent = rt.open[n-1]
	}
	rt.spans = append(rt.spans, span{start: at, end: -1, parent: parent, layer: l})
	rt.open = append(rt.open, int32(len(rt.spans)-1))
}

func (rt *rankTrace) finish(at int64) {
	n := len(rt.open) - 1
	s := &rt.spans[rt.open[n]]
	s.end = at
	rt.open = rt.open[:n]
	if n == 1 { // a direct child of the root closed
		rt.lastEnd, rt.lastKind = at, s.layer
	}
}

// topLevel opens a direct child of the root span, first recording the
// engine time since the previous one when a hook or restore explains it.
func (rt *rankTrace) topLevel(l layer, at int64) {
	gap := layerRank
	switch {
	case l == layerRestore || rt.lastKind == layerRestore:
		gap = layerRecovery
	case rt.lastKind == layerCapture || l == layerCapture:
		gap = layerBarrier
	}
	if gap != layerRank && at > rt.lastEnd {
		rt.spans = append(rt.spans, span{start: rt.lastEnd, end: at, parent: rt.open[0], layer: gap})
	}
	rt.begin(l, at)
}

// probes is the instrumentation of one traced run.
type probes struct {
	epoch time.Time
	ranks []*rankTrace

	mu         sync.Mutex // guards recStarts and recEnds
	recStarts  []int64
	recEnds    []int64
	stageNs    atomic.Int64
	stages     atomic.Int64
	publishNs  atomic.Int64
	loadNs     atomic.Int64
	loads      atomic.Int64
	storageErr atomic.Int64
	coldPutNs  atomic.Int64
	coldGetNs  atomic.Int64
}

func newProbes(ranks, steps int) *probes {
	p := &probes{epoch: time.Now(), ranks: make([]*rankTrace, ranks)}
	for r := range p.ranks {
		p.ranks[r] = &rankTrace{spans: make([]span, 0, 8*steps+16), maxIter: -1}
	}
	return p
}

func (p *probes) now() int64 { return int64(time.Since(p.epoch)) }

// registry hooks the capture and recovery fault points.
func (p *probes) registry() *core.FaultRegistry {
	reg := core.NewFaultRegistry()
	reg.Register(core.PointPreCapture, func(_ *core.Engine, info core.PointInfo) {
		p.ranks[info.Rank].topLevel(layerCapture, p.now())
	})
	reg.Register(core.PointPostCapture, func(_ *core.Engine, info core.PointInfo) {
		p.ranks[info.Rank].finish(p.now())
	})
	reg.Register(core.PointRecoveryStart, func(*core.Engine, core.PointInfo) {
		t := p.now()
		p.mu.Lock()
		p.recStarts = append(p.recStarts, t)
		p.mu.Unlock()
	})
	reg.Register(core.PointRecoveryEnd, func(*core.Engine, core.PointInfo) {
		t := p.now()
		p.mu.Lock()
		p.recEnds = append(p.recEnds, t)
		p.mu.Unlock()
	})
	return reg
}

// wrapFactory wraps every App the engine creates.
func (p *probes) wrapFactory(f model.AppFactory) model.AppFactory {
	return func() model.App { return &tracedApp{inner: f(), p: p, created: p.now()} }
}

// tracedApp forwards every model.App method and records its spans.
type tracedApp struct {
	inner   model.App
	p       *probes
	rt      *rankTrace
	created int64
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) Init(proc model.Process) error {
	a.rt = a.p.ranks[proc.Rank()]
	a.rt.begin(layerRank, a.created)
	a.rt.lastEnd = a.created
	a.rt.topLevel(layerInit, a.p.now())
	err := a.inner.Init(&tracedProc{inner: proc, p: a.p, rt: a.rt})
	a.rt.finish(a.p.now())
	return err
}

func (a *tracedApp) Step(iter int) error {
	rt := a.rt
	if iter <= rt.maxIter {
		rt.reexec++
	} else {
		rt.maxIter = iter
	}
	rt.topLevel(layerStep, a.p.now())
	err := a.inner.Step(iter)
	rt.finish(a.p.now())
	return err
}

func (a *tracedApp) Snapshot() ([]byte, error) {
	a.rt.begin(layerSnapshot, a.p.now())
	state, err := a.inner.Snapshot()
	a.rt.finish(a.p.now())
	a.rt.snapBytes += int64(len(state))
	return state, err
}

func (a *tracedApp) Restore(state []byte) error {
	a.rt.restores++
	a.rt.topLevel(layerRestore, a.p.now())
	err := a.inner.Restore(state)
	a.rt.finish(a.p.now())
	return err
}

// Verify is the last call of a rank, so it also closes the root span.
func (a *tracedApp) Verify() (float64, error) {
	a.rt.topLevel(layerVerify, a.p.now())
	v, err := a.inner.Verify()
	t := a.p.now()
	a.rt.finish(t)
	a.rt.finish(t)
	return v, err
}

var _ model.App = (*tracedApp)(nil)

// tracedProc forwards every model.Process method; communication calls are
// timed as mpi spans under the current app span.
type tracedProc struct {
	inner model.Process
	p     *probes
	rt    *rankTrace
}

func (t *tracedProc) enter(l layer) { t.rt.begin(l, t.p.now()) }
func (t *tracedProc) leave()        { t.rt.finish(t.p.now()) }

func (t *tracedProc) Rank() int               { return t.inner.Rank() }
func (t *tracedProc) Size() int               { return t.inner.Size() }
func (t *tracedProc) Compute(seconds float64) { t.inner.Compute(seconds) }
func (t *tracedProc) Now() float64            { return t.inner.Now() }

func (t *tracedProc) Send(b []byte, dest, tag int) error {
	t.enter(layerPost)
	defer t.leave()
	return t.inner.Send(b, dest, tag)
}

func (t *tracedProc) Recv(b []byte, src, tag int) (mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Recv(b, src, tag)
}

func (t *tracedProc) Isend(b []byte, dest, tag int) (*mpi.Request, error) {
	t.enter(layerPost)
	defer t.leave()
	return t.inner.Isend(b, dest, tag)
}

func (t *tracedProc) Irecv(b []byte, src, tag int) (*mpi.Request, error) {
	t.enter(layerPost)
	defer t.leave()
	return t.inner.Irecv(b, src, tag)
}

func (t *tracedProc) Wait(req *mpi.Request) (mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Wait(req)
}

func (t *tracedProc) Waitall(reqs []*mpi.Request) ([]mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Waitall(reqs)
}

func (t *tracedProc) Waitany(reqs []*mpi.Request) (int, mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Waitany(reqs)
}

func (t *tracedProc) Test(req *mpi.Request) (bool, mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Test(req)
}

func (t *tracedProc) Testall(reqs []*mpi.Request) (bool, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Testall(reqs)
}

func (t *tracedProc) Iprobe(src, tag int) (bool, mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Iprobe(src, tag)
}

func (t *tracedProc) Probe(src, tag int) (mpi.Status, error) {
	t.enter(layerWait)
	defer t.leave()
	return t.inner.Probe(src, tag)
}

func (t *tracedProc) Barrier() error {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.Barrier()
}

func (t *tracedProc) AllreduceF64(send, recv []float64, op mpi.Op) error {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.AllreduceF64(send, recv, op)
}

func (t *tracedProc) ReduceF64(send, recv []float64, op mpi.Op, root int) error {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.ReduceF64(send, recv, op, root)
}

func (t *tracedProc) BcastBytes(b []byte, root int) error {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.BcastBytes(b, root)
}

func (t *tracedProc) AllgatherF64(send []float64) ([]float64, error) {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.AllgatherF64(send)
}

func (t *tracedProc) AllgatherBytes(send []byte) ([]byte, error) {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.AllgatherBytes(send)
}

func (t *tracedProc) AlltoallBytes(send []byte, blockLen int) ([]byte, error) {
	t.enter(layerColl)
	defer t.leave()
	return t.inner.AlltoallBytes(send, blockLen)
}

func (t *tracedProc) DeclarePattern() uint32  { return t.inner.DeclarePattern() }
func (t *tracedProc) BeginIteration(p uint32) { t.inner.BeginIteration(p) }
func (t *tracedProc) EndIteration(p uint32)   { t.inner.EndIteration(p) }

var _ model.Process = (*tracedProc)(nil)

// wrapStorage decorates the engine's checkpoint storage.
func (p *probes) wrapStorage(ws checkpoint.WaveStorage) checkpoint.Storage {
	return &tracedStorage{inner: ws, p: p}
}

// tracedStorage times the WaveStorage calls. Unwrap keeps the engine's
// delta-capability probe seeing the tiered store underneath.
type tracedStorage struct {
	inner checkpoint.WaveStorage
	p     *probes
}

func (s *tracedStorage) Unwrap() checkpoint.WaveStorage { return s.inner }

func (s *tracedStorage) count(err error) error {
	if err != nil {
		s.p.storageErr.Add(1)
	}
	return err
}

func (s *tracedStorage) Save(cp *checkpoint.Checkpoint) error { return s.count(s.inner.Save(cp)) }

func (s *tracedStorage) Ranks() ([]int, error) {
	r, err := s.inner.Ranks()
	return r, s.count(err)
}

func (s *tracedStorage) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	start := time.Now()
	cp, ok, err := s.inner.Load(rank)
	s.p.loadNs.Add(int64(time.Since(start)))
	s.p.loads.Add(1)
	return cp, ok, s.count(err)
}

func (s *tracedStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	start := time.Now()
	commit, abort, err := s.inner.StageImage(rank, image)
	s.p.stageNs.Add(int64(time.Since(start)))
	s.p.stages.Add(1)
	if err != nil {
		return nil, nil, s.count(err)
	}
	timed := func() error {
		start := time.Now()
		err := commit()
		s.p.publishNs.Add(int64(time.Since(start)))
		return s.count(err)
	}
	return timed, abort, nil
}

var _ checkpoint.WaveStorage = (*tracedStorage)(nil)

// wrapCold decorates the tiered store's cold tier.
func (p *probes) wrapCold(cs checkpoint.ColdStore) checkpoint.ColdStore {
	return &tracedCold{inner: cs, p: p}
}

// tracedCold times the cold tier's puts and gets.
type tracedCold struct {
	inner checkpoint.ColdStore
	p     *probes
}

func (c *tracedCold) Put(rank, wave int, frame []byte) error {
	start := time.Now()
	err := c.inner.Put(rank, wave, frame)
	c.p.coldPutNs.Add(int64(time.Since(start)))
	return err
}

func (c *tracedCold) Get(rank, wave int) ([]byte, error) {
	start := time.Now()
	frame, err := c.inner.Get(rank, wave)
	c.p.coldGetNs.Add(int64(time.Since(start)))
	return frame, err
}

func (c *tracedCold) Delete(rank, wave int) error   { return c.inner.Delete(rank, wave) }
func (c *tracedCold) Waves(rank int) ([]int, error) { return c.inner.Waves(rank) }
func (c *tracedCold) Ranks() ([]int, error)         { return c.inner.Ranks() }

var _ checkpoint.ColdStore = (*tracedCold)(nil)

// storageStats is what the storage decorators counted in one run.
type storageStats struct {
	stageNs, stages, publishNs, loadNs, loads, errors, coldPutNs, coldGetNs int64
}

func (p *probes) storageStats() storageStats {
	return storageStats{
		stageNs:   p.stageNs.Load(),
		stages:    p.stages.Load(),
		publishNs: p.publishNs.Load(),
		loadNs:    p.loadNs.Load(),
		loads:     p.loads.Load(),
		errors:    p.storageErr.Load(),
		coldPutNs: p.coldPutNs.Load(),
		coldGetNs: p.coldGetNs.Load(),
	}
}

// spanStats is what one traced run's spans add up to.
type spanStats struct {
	self       [numLayers]int64 // self time per layer, ns
	calls      [numLayers]int64 // spans per layer
	rankNs     int64            // summed root span durations
	stepUs     []float64        // per-step durations
	captureUs  []float64        // per-capture durations
	steps      int64
	reexec     int64
	restores   int64
	snapBytes  int64
	recoveryNs int64 // wall time from each recovery start to its last end
}

// summarize checks that every rank's spans nest and computes self times. A
// span's self time is its duration minus its children's durations.
func (p *probes) summarize() (spanStats, error) {
	var st spanStats
	for r, rt := range p.ranks {
		if len(rt.open) != 0 || len(rt.spans) == 0 {
			return st, fmt.Errorf("rank %d: %d spans still open", r, len(rt.open))
		}
		self := make([]int64, len(rt.spans))
		for i, s := range rt.spans {
			d := s.end - s.start
			if d < 0 {
				return st, fmt.Errorf("rank %d: span %d (%s) ends before it starts", r, i, layerNames[s.layer])
			}
			self[i] += d
			if s.parent < 0 {
				st.rankNs += d
				continue
			}
			par := rt.spans[s.parent]
			if s.start < par.start || s.end > par.end {
				return st, fmt.Errorf("rank %d: span %d (%s) leaves its parent (%s)", r, i, layerNames[s.layer], layerNames[par.layer])
			}
			self[s.parent] -= d
			switch s.layer {
			case layerStep:
				st.stepUs = append(st.stepUs, float64(d)/1e3)
			case layerCapture:
				st.captureUs = append(st.captureUs, float64(d)/1e3)
			}
		}
		for i, s := range rt.spans {
			if self[i] < 0 {
				return st, fmt.Errorf("rank %d: children of span %d (%s) overlap", r, i, layerNames[s.layer])
			}
			st.self[s.layer] += self[i]
			st.calls[s.layer]++
		}
		st.reexec += int64(rt.reexec)
		st.restores += int64(rt.restores)
		st.snapBytes += rt.snapBytes
	}
	st.steps = st.calls[layerStep]
	slices.Sort(p.recStarts)
	slices.Sort(p.recEnds)
	for i, start := range p.recStarts {
		next := int64(1<<63 - 1)
		if i+1 < len(p.recStarts) {
			next = p.recStarts[i+1]
		}
		last := start
		for _, end := range p.recEnds {
			if end >= start && end < next {
				last = end
			}
		}
		st.recoveryNs += last - start
	}
	return st, nil
}

// writeSpans writes every span as one line: rank, layer, parent, start and
// end in nanoseconds.
func (p *probes) writeSpans(w io.Writer) error {
	for r, rt := range p.ranks {
		for _, s := range rt.spans {
			if _, err := fmt.Fprintf(w, "%d %s %d %d %d\n", r, layerNames[s.layer], s.parent, s.start, s.end); err != nil {
				return err
			}
		}
	}
	return nil
}
