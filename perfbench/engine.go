package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// profileSteps is the length of the profiling pre-run, runner.Run's default.
const profileSteps = 2

// instance is one set-up run: a fresh world and engine, ready for Engine.Run.
type instance struct {
	world   *mpi.World
	eng     *core.Engine
	tiered  *checkpoint.TieredStorage // nil with MemoryStorage
	rec     *trace.Recorder           // nil unless the workload records
	factory model.AppFactory

	setup     time.Duration
	partition time.Duration
}

// costModel is runner.Run's default cost model for the workload's placement.
func costModel(w workload) simnet.CostModel {
	c := simnet.DefaultCostModel()
	c.RanksPerNode = w.ranksPerNode
	return c
}

// blockPartition assigns contiguous blocks of size ranks to each cluster.
func blockPartition(ranks, size int) []int {
	out := make([]int, ranks)
	for r := range out {
		out[r] = r / size
	}
	return out
}

// profilePartition is the profiling pre-run runner.Run performs under SPBC:
// a short native run of the kernel, core.BuildProfile and
// clustering.Partition. It returns the partition and the time Partition took.
func profilePartition(w workload, factory model.AppFactory) ([]int, time.Duration, error) {
	world, err := mpi.NewWorld(w.ranks, costModel(w))
	if err != nil {
		return nil, 0, err
	}
	err = world.Run(func(p *mpi.Proc) error {
		a := factory()
		if err := a.Init(model.NewNativeProcess(p)); err != nil {
			return err
		}
		for i := 0; i < min(profileSteps, w.steps); i++ {
			if err := a.Step(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profiling run: %w", err)
	}
	prof := core.BuildProfile(world, w.ranksPerNode)
	start := time.Now()
	clusterOf, err := clustering.Partition(prof, w.clusters, clustering.MinTotalLogged)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if err := clustering.Validate(prof, clusterOf, w.clusters, w.clusters < prof.Ranks); err != nil {
		return nil, 0, err
	}
	return clusterOf, took, nil
}

// newStorage builds the workload's checkpoint storage. cold, when set,
// decorates the tiered store's cold tier.
func newStorage(w workload, cold func(checkpoint.ColdStore) checkpoint.ColdStore) (checkpoint.Storage, *checkpoint.TieredStorage) {
	if !w.tiered {
		return checkpoint.NewMemoryStorage(), nil
	}
	var cs checkpoint.ColdStore = checkpoint.NewMemColdStore()
	if cold != nil {
		cs = cold(cs)
	}
	t := checkpoint.NewTieredStorage(checkpoint.TieredConfig{Cold: cs})
	return t, t
}

// engineConfig is the core.Config runner.Run would build for the workload.
func engineConfig(w workload, clusterOf []int, faults []core.Fault, st checkpoint.Storage) core.Config {
	cfg := core.Config{
		Interval: w.interval,
		Steps:    w.steps,
		Storage:  st,
		Faults:   faults,
	}
	if w.blockSize > 0 {
		cfg.Adaptive = &core.AdaptiveConfig{Seed: clusterOf, RanksPerNode: w.ranksPerNode}
	} else {
		cfg.Policy = core.NewSPBCProtocol(clusterOf)
	}
	return cfg
}

// setUp builds one run through the engine's public entry points. p is nil
// for timed runs; a traced run hands in its probes, which wrap the storage,
// the kernel and the engine's fault points.
func setUp(w workload, in inputs, p *probes) (*instance, error) {
	start := time.Now()
	inst := &instance{factory: in.factory(w)}
	var clusterOf []int
	if w.blockSize > 0 {
		clusterOf = blockPartition(w.ranks, w.blockSize)
	} else {
		var err error
		if clusterOf, inst.partition, err = profilePartition(w, inst.factory); err != nil {
			return nil, err
		}
	}
	var wrapCold func(checkpoint.ColdStore) checkpoint.ColdStore
	if p != nil {
		wrapCold = p.wrapCold
	}
	st, tiered := newStorage(w, wrapCold)
	inst.tiered = tiered
	var opts []mpi.Option
	if w.record {
		inst.rec = trace.NewRecorder(w.ranks)
		opts = append(opts, mpi.WithRecorder(inst.rec))
	}
	world, err := mpi.NewWorld(w.ranks, costModel(w), opts...)
	if err != nil {
		return nil, err
	}
	if p != nil {
		st = p.wrapStorage(st.(checkpoint.WaveStorage))
	}
	cfg := engineConfig(w, clusterOf, in.faults, st)
	if p != nil {
		cfg.Faultpoints = p.registry()
		inst.factory = p.wrapFactory(inst.factory)
	}
	eng, err := core.NewEngine(world, cfg)
	if err != nil {
		return nil, err
	}
	inst.world, inst.eng = world, eng
	inst.setup = time.Since(start)
	return inst, nil
}

// errWatchdog marks a run the watchdog aborted.
var errWatchdog = errors.New("watchdog: run exceeded its deadline and was aborted")

// errHung marks a run that did not return even after World.Abort; its
// goroutines are still parked and the process must stop measuring.
var errHung = errors.New("watchdog: run did not return after World.Abort")

// runEngine executes Engine.Run under the watchdog and returns its host
// time and the Go runtime counters it moved. When the deadline expires the world is aborted; a run that then
// returns counts as errWatchdog, one that stays parked for grace as errHung.
func runEngine(inst *instance, deadline, grace time.Duration) (time.Duration, runtimeDelta, error) {
	done := make(chan error, 1)
	before := readRuntime()
	start := time.Now()
	go func() { done <- inst.eng.Run(inst.factory) }()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		took := time.Since(start)
		delta := readRuntime().since(before)
		if inst.tiered != nil {
			inst.tiered.Quiesce()
		}
		return took, delta, err
	case <-timer.C:
	}
	inst.world.Abort()
	select {
	case <-done:
		return time.Since(start), runtimeDelta{}, errWatchdog
	case <-time.After(grace):
		return time.Since(start), runtimeDelta{}, errHung
	}
}

// runtimeCounters are the cumulative Go runtime and buffer-pool counters.
type runtimeCounters struct {
	alloc, cycles, pauseNs uint64
	gcCPU, totalCPU        float64
	pool                   buf.Stats
}

// runtimeDelta is the change of the counters across one Engine.Run.
type runtimeDelta struct {
	allocMiB, cycles, pauseMs, cpuFraction float64
	poolGets, poolMisses                   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		cycles:   s[0].Value.Uint64(),
		alloc:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		pauseNs:  ms.PauseTotalNs,
		pool:     buf.PoolStats(),
	}
}

func (c runtimeCounters) since(b runtimeCounters) runtimeDelta {
	d := runtimeDelta{
		allocMiB:   float64(c.alloc-b.alloc) / (1 << 20),
		cycles:     float64(c.cycles - b.cycles),
		pauseMs:    float64(c.pauseNs-b.pauseNs) / 1e6,
		poolGets:   float64(c.pool.Gets - b.pool.Gets),
		poolMisses: float64(c.pool.Misses - b.pool.Misses),
	}
	if total := c.totalCPU - b.totalCPU; total > 0 {
		d.cpuFraction = (c.gcCPU - b.gcCPU) / total
	}
	return d
}

// outcome is what one run of a workload produced: its simulated results,
// compared across runs, and its host-side measurements.
type outcome struct {
	verify       []float64
	makespan     float64
	sends        uint64
	bytesSent    uint64
	suppressed   uint64
	loggedBytes  uint64
	retained     uint64
	metrics      core.Metrics
	traceEvents  int
	demotions    int
	fallbacks    int
	run          time.Duration
	setup        time.Duration
	partition    time.Duration
	liveHeap     uint64
	heapBaseline uint64
	during       runtimeDelta // Go runtime counters across Engine.Run
}

// collect reads a finished run's results. It forces a GC while the engine
// and storage are still reachable, so liveHeap is their footprint.
func collect(inst *instance, run time.Duration, during runtimeDelta, heapBaseline uint64) outcome {
	o := outcome{
		during:       during,
		verify:       inst.eng.VerifyValues(),
		makespan:     inst.world.MaxTime(),
		metrics:      inst.eng.Metrics(),
		run:          run,
		setup:        inst.setup,
		partition:    inst.partition,
		heapBaseline: heapBaseline,
	}
	for r := 0; r < inst.world.Size(); r++ {
		s := inst.world.Proc(r).Stats.Snapshot()
		o.sends += s.Sends
		o.bytesSent += s.BytesSent
		o.suppressed += s.Suppressed
		st := inst.eng.Store(r)
		o.loggedBytes += st.CumulativeBytes()
		o.retained += st.RetainedBytes()
	}
	if inst.rec != nil {
		o.traceEvents = inst.rec.TotalEvents()
	}
	if inst.tiered != nil {
		o.demotions = inst.tiered.Demotions()
		o.fallbacks = inst.tiered.ReplicaFallbacks()
	}
	o.liveHeap = liveHeap()
	runtime.KeepAlive(inst)
	return o
}

// liveHeap returns the live heap after a forced collection. The second
// cycle empties the sync.Pool victim caches, so pooled buffers the run
// dropped do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reference holds the untimed reference twins of one invocation.
type reference struct {
	native      *runner.Report
	failureFree *runner.Report // the protected failure-free twin
}

// scenario is the runner.Scenario equivalent of the workload and inputs.
func scenario(w workload, in inputs) runner.Scenario {
	sc := runner.Scenario{
		Name:               w.name,
		App:                in.factory(w),
		Ranks:              w.ranks,
		RanksPerNode:       w.ranksPerNode,
		Clusters:           w.clusters,
		Steps:              w.steps,
		CheckpointInterval: w.interval,
		Protocol:           runner.ProtocolSPBC,
		Faults:             in.faults,
		ProfileSteps:       profileSteps,
	}
	if w.blockSize > 0 {
		sc.Protocol = runner.ProtocolSPBCAdaptive
		sc.ClusterOf = blockPartition(w.ranks, w.blockSize)
	}
	st, _ := newStorage(w, nil)
	sc.Storage = st
	if w.record {
		sc.Recorder = trace.NewRecorder(w.ranks)
	}
	return sc
}

// references runs the native baseline and the protected failure-free twin.
func references(w workload, in inputs) (reference, error) {
	nat := scenario(w, in)
	nat.Protocol, nat.Faults, nat.Storage, nat.ClusterOf, nat.CheckpointInterval = runner.ProtocolNative, nil, nil, nil, 0
	native, err := runner.Run(nat)
	if err != nil {
		return reference{}, fmt.Errorf("native twin: %w", err)
	}
	ref := reference{native: native}
	if len(in.faults) > 0 {
		ff := scenario(w, in)
		ff.Faults = nil
		if ref.failureFree, err = runner.Run(ff); err != nil {
			return reference{}, fmt.Errorf("failure-free twin: %w", err)
		}
	}
	return ref, nil
}
