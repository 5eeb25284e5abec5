package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/model"
)

// workload is one fixed scenario shape. The seed only draws the inputs the
// shape leaves open: the initial state field and, for faulty workloads, the
// fault plan.
type workload struct {
	name string
	why  string

	ranks        int
	ranksPerNode int
	// clusters > 0 selects static SPBC with a partition computed by the
	// profiling pre-run; blockSize > 0 selects spbc-adaptive seeded with
	// contiguous blocks of that many ranks.
	clusters  int
	blockSize int
	steps     int
	interval  int
	tiered    bool // TieredStorage with delta encoding; else MemoryStorage
	record    bool // attach a trace recorder to the measured world
	faults    int  // single-rank faults drawn from the seed
	kernel    func() model.AppFactory
	wantDelta bool // the delta pipeline must stage delta frames
}

var workloads = []workload{
	{
		name:         "halo-4k",
		why:          "4096-rank ring stencil, failure-free static SPBC over 256 profiled clusters: messaging-bound, and a 4096-rank set-up",
		ranks:        4096,
		ranksPerNode: 16,
		clusters:     256,
		steps:        40,
		interval:     10,
		kernel:       func() model.AppFactory { return app.NewRing(64, 8) },
	},
	{
		name:         "recover-adaptive",
		why:          "256-rank phase-shift under adaptive SPBC with four seeded single-rank faults: log replay, storage reads, re-execution",
		ranks:        256,
		ranksPerNode: 8,
		blockSize:    32,
		steps:        64,
		interval:     16,
		tiered:       true,
		record:       true,
		faults:       4,
		kernel:       func() model.AppFactory { return app.NewPhaseShift(256, 4) },
		wantDelta:    true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are the seeded inputs of one workload: everything the program
// receives besides the fixed shape.
type inputs struct {
	seed   uint64
	faults []core.Fault
	field  initialField
}

// initialField is a smooth seeded perturbation added to the kernel's own
// initial block: u[g] += amp*sin(freq*g + phase) for global cell index g. It
// keeps the state as smooth as the kernel's, so the delta codec sees the same
// kind of content on every seed.
type initialField struct {
	amp, freq, phase float64
}

// drawInputs derives a workload's inputs from the seed. The same seed always
// gives the same inputs.
func drawInputs(w workload, seed uint64) inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5bc0_de1e))
	in := inputs{seed: seed}
	in.field = initialField{
		amp:   0.05 + 0.1*rng.Float64(),
		freq:  0.01 + 0.02*rng.Float64(),
		phase: 2 * math.Pi * rng.Float64(),
	}
	if w.faults > 0 {
		in.faults = drawFaults(rng, w.faults, w.ranks, w.interval)
	}
	return in
}

// drawFaults draws n single-rank faults, one in each of the first n
// checkpoint intervals, within an eighth of an interval of its middle. The
// ranks and exact iterations come from the seed; re-execution after each
// fault covers about half an interval on every seed, so the seed moves the
// recovery path but not the amount of work.
func drawFaults(rng *rand.Rand, n, ranks, interval int) []core.Fault {
	spread := interval / 8
	faults := make([]core.Fault, n)
	for i := range faults {
		offset := interval/2 - spread + rng.IntN(2*spread+1)
		faults[i] = core.Fault{Rank: rng.IntN(ranks), Iteration: i*interval + offset}
	}
	return faults
}

// factory returns the workload's kernel with the seeded initial state.
func (in inputs) factory(w workload) model.AppFactory {
	inner := w.kernel()
	return func() model.App { return &seededApp{App: inner(), field: in.field} }
}

// seededApp applies the seeded initial field once, right after Init, through
// the App's own Snapshot/Restore contract. Both kernels snapshot their cells
// as a little-endian length-prefixed float64 block first.
type seededApp struct {
	model.App
	field initialField
}

func (s *seededApp) Init(p model.Process) error {
	if err := s.App.Init(p); err != nil {
		return err
	}
	state, err := s.App.Snapshot()
	if err != nil {
		return err
	}
	if len(state) < 8 {
		return fmt.Errorf("perfbench: %s snapshot has no cell block", s.App.Name())
	}
	n := binary.LittleEndian.Uint64(state)
	if uint64(len(state)-8) < 8*n {
		return fmt.Errorf("perfbench: %s snapshot is shorter than its %d cells", s.App.Name(), n)
	}
	for i := uint64(0); i < n; i++ {
		off := 8 + 8*i
		g := float64(uint64(p.Rank())*n + i)
		v := math.Float64frombits(binary.LittleEndian.Uint64(state[off:]))
		v += s.field.amp * math.Sin(s.field.freq*g+s.field.phase)
		binary.LittleEndian.PutUint64(state[off:], math.Float64bits(v))
	}
	return s.App.Restore(state)
}
