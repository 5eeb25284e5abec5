package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/runner"
)

const (
	minSamples   = 3   // per kind (timed, traced) before the clock may stop
	maxSamples   = 200 // guards tiny workloads against unbounded loops
	setupSamples = 21  // set-ups per invocation, counting those of the runs
	// runDeadline is the watchdog's limit for one run, about ten times the
	// longest healthy run; runGrace is how long an aborted run may take to
	// return.
	runDeadline = 30 * time.Second
	runGrace    = 10 * time.Second
)

// options are one invocation's settings.
type options struct {
	seconds float64
	trace   bool
	spans   string // file for the last traced run's spans, if set
}

// sample is one measured run.
type sample struct {
	outcome
	// calib is the mean host time of the calibration loads run just before
	// and just after a timed run.
	calib   time.Duration
	traced  bool
	spans   spanStats
	storage storageStats
}

// result is everything one invocation measured for one workload.
type result struct {
	w         workload
	in        inputs
	ref       reference
	attempted int
	failed    int
	failures  []string
	timed     []sample
	traced    []sample
	// setups are the set-up times of the timed runs plus set-up-only
	// repetitions, so setup_s rests on a median even for short workloads.
	setups []time.Duration
	// runnerMakespan is runner.Run's makespan; first is the first run's
	// simulated results. Failure-free runs must reproduce both exactly.
	runnerMakespan float64
	first          *outcome
	// lastProbe keeps the latest traced run's spans for opt.spans.
	lastProbe *probes
	// calibSum is the first calibration load's checksum; every later load
	// must repeat it.
	calibSum float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAIL: %s\n", r.w.name, r.in.seed, msg)
}

// correct reports whether every attempted run passed its checks.
func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// sameBits compares digests bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// measure runs one workload for opt.seconds: the untimed reference twins,
// one runner.Run equivalence check, then timed runs (alternating with
// traced runs when opt.trace is set) until the time is up.
func measure(w workload, seed uint64, opt options) (*result, error) {
	res := &result{w: w, in: drawInputs(w, seed)}
	ref, err := references(w, res.in)
	if err != nil {
		return nil, err
	}
	res.ref = ref
	if ref.failureFree != nil && !sameBits(ref.failureFree.Verify, ref.native.Verify) {
		return nil, fmt.Errorf("failure-free twin digests differ from native")
	}

	// The runner check also warms the heap and the buffer pools up.
	if hung := res.checkRunner(); hung {
		return res, nil
	}

	stop := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var cal time.Duration // the calibration run right before the next timed run
	for i := 0; i < maxSamples; i++ {
		traced := opt.trace && i%2 == 1
		enough := len(res.timed) >= minSamples && (!opt.trace || len(res.traced) >= minSamples)
		if (enough || res.failed > 0) && time.Now().After(stop) {
			break
		}
		if !traced && cal == 0 {
			if cal, err = res.calibrate(); err != nil {
				return nil, err
			}
		}
		s, err := res.runOnce(traced, opt)
		if errors.Is(err, errHung) {
			break
		}
		if traced {
			cal = 0
		} else {
			after, err := res.calibrate()
			if err != nil {
				return nil, err
			}
			if s != nil {
				s.calib = (cal + after) / 2
			}
			cal = after
		}
		if s == nil {
			continue
		}
		if traced {
			res.traced = append(res.traced, *s)
		} else {
			res.timed = append(res.timed, *s)
			res.setups = append(res.setups, s.setup)
		}
	}
	for len(res.setups) < setupSamples && res.failed == 0 {
		liveHeap() // every set-up starts from a collected heap, as the runs' do
		inst, err := setUp(w, res.in, nil)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, inst.setup)
	}
	if opt.spans != "" && res.lastProbe != nil {
		if err := writeSpanFile(opt.spans, res.lastProbe); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// calibrate runs the calibration load from a collected heap, as the runs
// start, and checks that it computed what it always computes.
func (r *result) calibrate() (time.Duration, error) {
	liveHeap()
	took, sum := calibrate()
	if r.calibSum == 0 {
		r.calibSum = sum
	} else if math.Float64bits(sum) != math.Float64bits(r.calibSum) {
		return 0, fmt.Errorf("calibration load checksum %v differs from the first one, %v", sum, r.calibSum)
	}
	return took, nil
}

// checkRunner runs the scenario once through runner.Run and checks that it
// produces what the direct engine path is held to. It reports whether the
// run hung, in which case measuring stops.
func (r *result) checkRunner() (hung bool) {
	r.attempted++
	done := make(chan struct{})
	var rep *runner.Report
	var err error
	go func() {
		defer close(done)
		rep, err = runner.Run(scenario(r.w, r.in))
	}()
	select {
	case <-done:
	case <-time.After(runDeadline + runGrace):
		r.fail("runner.Run did not return within %v", runDeadline+runGrace)
		return true
	}
	switch {
	case err != nil:
		r.fail("runner.Run: %v", err)
	case !sameBits(rep.Verify, r.ref.native.Verify):
		r.fail("runner.Run digests differ from native")
	default:
		r.runnerMakespan = rep.Makespan
	}
	return false
}

// runOnce sets up and runs the workload once and checks the result. It
// returns nil when the run failed.
func (r *result) runOnce(traced bool, opt options) (*sample, error) {
	r.attempted++
	base := liveHeap()
	var p *probes
	if traced {
		p = newProbes(r.w.ranks, r.w.steps)
	}
	inst, err := setUp(r.w, r.in, p)
	if err != nil {
		r.fail("set-up: %v", err)
		return nil, err
	}
	took, during, err := runEngine(inst, runDeadline, runGrace)
	if err != nil {
		r.fail("Engine.Run (traced=%v): %v", traced, err)
		return nil, err
	}
	s := &sample{outcome: collect(inst, took, during, base), traced: traced}
	if msg := r.check(s); msg != "" {
		r.fail("%s (traced=%v)", msg, traced)
		return nil, nil
	}
	if traced {
		if s.spans, err = p.summarize(); err != nil {
			r.fail("traced run spans: %v", err)
			return nil, nil
		}
		s.storage = p.storageStats()
		if opt.spans != "" {
			r.lastProbe = p
		}
	}
	return s, nil
}

// check holds one run to the references. Failure-free runs are
// deterministic in virtual time, so their simulated statistics must repeat
// exactly; runs with faults must still end with bit-identical digests.
func (r *result) check(s *sample) string {
	if !sameBits(s.verify, r.ref.native.Verify) {
		return "digests differ from the native twin"
	}
	if r.w.wantDelta && s.metrics.DeltaImages == 0 {
		return "the delta pipeline staged no delta frames"
	}
	if len(r.in.faults) > 0 {
		return ""
	}
	if s.makespan != r.runnerMakespan {
		return fmt.Sprintf("makespan %v differs from runner.Run's %v", s.makespan, r.runnerMakespan)
	}
	if r.first == nil {
		first := s.outcome
		r.first = &first
		return ""
	}
	f := r.first
	if s.sends != f.sends || s.bytesSent != f.bytesSent || s.metrics.CheckpointWaves != f.metrics.CheckpointWaves {
		return fmt.Sprintf("simulated statistics differ between runs: sends %d/%d, bytes %d/%d, waves %d/%d",
			s.sends, f.sends, s.bytesSent, f.bytesSent, s.metrics.CheckpointWaves, f.metrics.CheckpointWaves)
	}
	return ""
}

func writeSpanFile(path string, p *probes) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := p.writeSpans(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
