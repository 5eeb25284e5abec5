package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Result is the invariant checker's verdict on one scenario, JSON-ready for
// the chaos report.
type Result struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Passed   bool   `json:"passed"`
	// ExpectError mirrors the scenario: the run was supposed to fail.
	ExpectError bool `json:"expect_error,omitempty"`
	// RunError is the run's error text (expected or not).
	RunError string `json:"run_error,omitempty"`
	// Violations lists every invariant the run broke; empty iff Passed.
	Violations []string `json:"violations,omitempty"`

	CrashedRanks      []int `json:"crashed_ranks"`
	RolledBackRanks   []int `json:"rolled_back_ranks,omitempty"`
	RecoveryEvents    int   `json:"recovery_events"`
	ReplayedRecords   int   `json:"replayed_records"`
	CanceledWaves     int   `json:"canceled_waves"`
	Epochs            int   `json:"epochs,omitempty"`
	StorageInjections int   `json:"storage_injections"`
	// NetInjections is the total number of messages the scenario's network
	// rules perturbed; NetInjectionsPerRule breaks it down per rule in the
	// model's order (delays, reorders, holds, partitions, concatenated) —
	// the network counterpart of StorageInjections, pinning that a scenario
	// actually exercised the chaos it declares.
	NetInjections        int     `json:"net_injections"`
	NetInjectionsPerRule []int   `json:"net_injections_per_rule,omitempty"`
	Makespan             float64 `json:"makespan_s"`
	// ReplicaFallbacks counts recoveries that had to degrade to the buddy
	// replica of a tiered store (scenarios with a StorageSpec only).
	ReplicaFallbacks int `json:"replica_fallbacks,omitempty"`
}

// appTraffic keeps only application point-to-point sends on the world
// communicator, mirroring the engine tests' replay-determinism filter.
func appTraffic(e trace.Event) bool {
	return e.Channel.Comm == 0 && e.Tag <= mpi.MaxAppTag
}

// durabilityTracker decorates the scenario's storage to enforce the
// no-undurable-reads invariant: it records the iteration of every image at
// the moment its commit succeeds, and flags any Load whose checkpoint was
// never durably committed. It wraps the scenario's FaultStorage (if any), so
// it observes exactly what the engine observes.
type durabilityTracker struct {
	inner checkpoint.Storage

	mu         sync.Mutex
	durable    map[int]map[int]bool // rank -> committed iterations
	violations []string
}

func newDurabilityTracker(inner checkpoint.Storage) *durabilityTracker {
	return &durabilityTracker{inner: inner, durable: make(map[int]map[int]bool)}
}

func (t *durabilityTracker) mark(rank, iteration int) {
	t.mu.Lock()
	if t.durable[rank] == nil {
		t.durable[rank] = make(map[int]bool)
	}
	t.durable[rank][iteration] = true
	t.mu.Unlock()
}

func (t *durabilityTracker) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	// Decode before delegating: an inner ModeCorrupt rule flips the image's
	// bytes in place, and the metadata of record is the pre-corruption one.
	meta, metaErr := checkpoint.DecodeMeta(image.Bytes())
	commit, abort, err := t.inner.StageImage(rank, image)
	if err != nil {
		return nil, nil, err
	}
	wrapped := func() error {
		if err := commit(); err != nil {
			return err
		}
		if metaErr == nil {
			t.mark(rank, meta.Iteration)
		}
		return nil
	}
	return wrapped, abort, nil
}

func (t *durabilityTracker) Save(cp *checkpoint.Checkpoint) error {
	return checkpoint.StageAndCommit(t, cp)
}

func (t *durabilityTracker) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	cp, ok, err := t.inner.Load(rank)
	if err == nil && ok {
		t.mu.Lock()
		if !t.durable[rank][cp.Iteration] {
			t.violations = append(t.violations, fmt.Sprintf(
				"chaos: recovery of rank %d read the wave at iteration %d, which was never durably committed", rank, cp.Iteration))
		}
		t.mu.Unlock()
	}
	return cp, ok, err
}

func (t *durabilityTracker) Ranks() ([]int, error) { return t.inner.Ranks() }

// Unwrap exposes the tracked storage so the committer's capability probe can
// see through to a delta-capable tier.
func (t *durabilityTracker) Unwrap() checkpoint.Storage { return t.inner }

func (t *durabilityTracker) takeViolations() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.violations...)
}

var _ checkpoint.Storage = (*durabilityTracker)(nil)

// Check compiles and executes the scenario next to its failure-free twin and
// verifies the chaos invariants: (1) the chaotic run converges to the twin's
// results and its application traffic replays bit-identically; (2) the
// rollback scope obeys the protocol's bound (full-log: exactly the crashed
// ranks; coordinated: the whole world; SPBC: the crashed ranks' clusters;
// adaptive: bounded by the crashed ranks' cluster-mates across epochs); and
// (3) recovery never reads a checkpoint wave that was not durably committed.
func Check(sc Scenario) *Result {
	res := &Result{Scenario: sc.Name, ExpectError: sc.ExpectError}
	fail := func(format string, args ...interface{}) *Result {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		return res
	}
	if err := sc.normalize(); err != nil {
		return fail("%v", err)
	}
	res.Protocol = string(sc.Protocol)
	comp, err := compile(&sc)
	if err != nil {
		return fail("%v", err)
	}
	res.CrashedRanks = sortedRanks(comp.crashed)
	factory, err := sc.Workload.factory()
	if err != nil {
		return fail("%v", err)
	}

	// The failure-free twin: the same kernel on the unprotected baseline,
	// recorded for the bit-identical-replay comparison.
	var recTwin *trace.Recorder
	var twin *runner.Report
	if !sc.ExpectError {
		recTwin = trace.NewRecorder(sc.Ranks)
		twin, err = runner.Run(runner.Scenario{
			Name:         sc.Name + "-twin",
			App:          factory,
			Ranks:        sc.Ranks,
			RanksPerNode: sc.RanksPerNode,
			Steps:        sc.Steps,
			Protocol:     runner.ProtocolNative,
			Recorder:     recTwin,
		})
		if err != nil {
			return fail("chaos: failure-free twin: %v", err)
		}
	}

	tiered, err := sc.Storage.build()
	if err != nil {
		return fail("%v", err)
	}
	var storage checkpoint.Storage
	if tiered != nil {
		storage = tiered
	}

	var tracker *durabilityTracker
	var faultStore *checkpoint.FaultStorage
	spec := runner.ChaosSpec{
		Faultpoints: comp.reg,
		NetChaos:    comp.net,
		WrapStorage: func(st checkpoint.Storage) checkpoint.Storage {
			if len(comp.rules) > 0 {
				fs, err := checkpoint.NewFaultStorage(st, comp.rules...)
				if err != nil {
					// Rules were validated at compile time, so this is a
					// should-not-happen; surface it as a violation, not a
					// silent unfaulted run.
					comp.hookErr(fmt.Errorf("chaos: building fault storage: %w", err))
					return st
				}
				faultStore = fs
				st = fs
			}
			tracker = newDurabilityTracker(st)
			return tracker
		},
	}
	rec := trace.NewRecorder(sc.Ranks)
	rep, runErr := runner.Run(runner.Scenario{
		Name:               sc.Name,
		App:                factory,
		Ranks:              sc.Ranks,
		RanksPerNode:       sc.RanksPerNode,
		ClusterOf:          sc.ClusterOf,
		Steps:              sc.Steps,
		CheckpointInterval: sc.Interval,
		Protocol:           sc.Protocol,
		Faults:             comp.faults,
		Recorder:           rec,
		Storage:            storage,
		Chaos:              &spec,
	})
	if runErr != nil {
		res.RunError = runErr.Error()
	}
	if tiered != nil {
		tiered.Quiesce()
		res.ReplicaFallbacks = tiered.ReplicaFallbacks()
	}
	if faultStore != nil {
		res.StorageInjections = faultStore.TotalInjections()
	}
	if comp.net != nil {
		res.NetInjections = comp.net.TotalInjections()
		res.NetInjectionsPerRule = comp.net.Injections()
	}

	if sc.ExpectError {
		if runErr == nil {
			return fail("chaos: scenario %s expected the run to fail, but it succeeded", sc.Name)
		}
		res.Passed = true
		return res
	}
	if runErr != nil {
		return fail("chaos: run failed: %v", runErr)
	}

	res.RolledBackRanks = rep.Engine.RolledBackRanks
	res.RecoveryEvents = rep.Engine.RecoveryEvents
	res.ReplayedRecords = rep.Engine.ReplayedRecords
	res.CanceledWaves = rep.Engine.CheckpointWavesCanceled
	res.Epochs = rep.Engine.Epochs
	res.Makespan = rep.Makespan

	res.Violations = append(res.Violations, comp.violations()...)
	if tracker != nil {
		res.Violations = append(res.Violations, tracker.takeViolations()...)
	}
	if !reflect.DeepEqual(rep.Verify, twin.Verify) {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"chaos: results diverged from the failure-free twin: %v vs %v", rep.Verify, twin.Verify))
	}
	if err := trace.CheckFilteredChannelDeterminism(recTwin, rec, appTraffic); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("chaos: replay not bit-identical: %v", err))
	}
	res.Violations = append(res.Violations, rollbackViolations(&sc, rep, comp.crashed)...)

	res.Passed = len(res.Violations) == 0
	return res
}

// rollbackViolations checks the per-protocol rollback-scope bound.
func rollbackViolations(sc *Scenario, rep *runner.Report, crashed map[int]bool) []string {
	rolled := rep.Engine.RolledBackRanks
	rolledSet := make(map[int]bool, len(rolled))
	for _, r := range rolled {
		rolledSet[r] = true
	}
	var out []string
	// Every crashed rank must have rolled back, under every protocol.
	for _, r := range sortedRanks(crashed) {
		if !rolledSet[r] {
			out = append(out, fmt.Sprintf("chaos: crashed rank %d never rolled back", r))
		}
	}
	switch sc.Protocol {
	case runner.ProtocolFullLog:
		// Single-rank rollback: exactly the crashed ranks.
		for _, r := range rolled {
			if !crashed[r] {
				out = append(out, fmt.Sprintf("chaos: full-log rolled back surviving rank %d (crashed: %v)", r, sortedRanks(crashed)))
			}
		}
	case runner.ProtocolCoordinated:
		// Global rollback: a failure takes the whole world back.
		if len(crashed) > 0 && len(rolled) != sc.Ranks {
			out = append(out, fmt.Sprintf("chaos: coordinated rollback covered %d of %d ranks", len(rolled), sc.Ranks))
		}
	case runner.ProtocolSPBC:
		allowed := clusterMates(rep.ClusterOf, crashed)
		for _, r := range rolled {
			if !allowed[r] {
				out = append(out, fmt.Sprintf("chaos: spbc rolled back rank %d outside the crashed clusters (allowed: %v)", r, sortedRanks(allowed)))
			}
		}
	case runner.ProtocolSPBCAdaptive:
		// The partition moves between epochs; the scope bound is the union
		// of the crashed ranks' cluster-mates across every epoch's view.
		allowed := make(map[int]bool)
		views := [][]int{rep.ClusterOf}
		for _, ep := range rep.Epochs {
			views = append(views, ep.ClusterOf)
		}
		for _, view := range views {
			for r := range clusterMates(view, crashed) {
				allowed[r] = true
			}
		}
		for _, r := range rolled {
			if !allowed[r] {
				out = append(out, fmt.Sprintf("chaos: adaptive rolled back rank %d outside every epoch's crashed clusters (allowed: %v)", r, sortedRanks(allowed)))
			}
		}
	}
	return out
}

// clusterMates returns every rank sharing a cluster with a crashed rank.
func clusterMates(clusterOf []int, crashed map[int]bool) map[int]bool {
	out := make(map[int]bool)
	if clusterOf == nil {
		return out
	}
	hit := make(map[int]bool)
	for r := range crashed {
		if r < len(clusterOf) {
			hit[clusterOf[r]] = true
		}
	}
	for r, cl := range clusterOf {
		if hit[cl] {
			out[r] = true
		}
	}
	return out
}

func sortedRanks(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
