package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/mpi"
)

func TestDrawInputsIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := drawInputs(w, 7), drawInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 drew %+v, then %+v", w.name, a, b)
		}
		if c := drawInputs(w, 8); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 drew the same inputs %+v", w.name, a)
		}
	}
}

func TestFaultPlansStayInsideTheRun(t *testing.T) {
	for _, w := range workloads {
		if w.faults*w.interval > w.steps {
			t.Fatalf("%s: %d faults need %d intervals of %d steps, the run has %d steps",
				w.name, w.faults, w.faults, w.interval, w.steps)
		}
		for seed := uint64(0); seed < 200; seed++ {
			in := drawInputs(w, seed)
			if len(in.faults) != w.faults {
				t.Fatalf("%s seed %d: %d faults, want %d", w.name, seed, len(in.faults), w.faults)
			}
			seen := map[int]bool{}
			for _, f := range in.faults {
				if f.Rank < 0 || f.Rank >= w.ranks || f.Iteration < 1 || f.Iteration >= w.steps || seen[f.Iteration] {
					t.Fatalf("%s seed %d: bad fault plan %v", w.name, seed, in.faults)
				}
				seen[f.Iteration] = true
			}
		}
	}
}

// small shrinks a workload's scale, keeping its protocol and storage.
func small(w workload) workload {
	w.ranks, w.ranksPerNode, w.steps = 16, min(w.ranksPerNode, 2), 8
	if w.clusters > 0 {
		w.clusters = 4
	}
	if w.blockSize > 0 {
		w.blockSize, w.interval = 4, 2
	}
	if w.interval > 2 {
		w.interval = 2
	}
	return w
}

func runSmall(t *testing.T, w workload, in inputs, p *probes) outcome {
	t.Helper()
	inst, err := setUp(w, in, p)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	took, during, err := runEngine(inst, time.Minute, time.Second)
	if err != nil {
		t.Fatalf("%s: run: %v", w.name, err)
	}
	return collect(inst, took, during, 0)
}

// TestProbesAreTransparent runs every workload shape at small scale with and
// without probes: digests, send counts and the checkpoint pipeline must not
// notice them, and the spans must nest and add up to the rank time.
func TestProbesAreTransparent(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		in := drawInputs(w, 3)
		plain := runSmall(t, w, in, nil)
		p := newProbes(w.ranks, w.steps)
		traced := runSmall(t, w, in, p)
		if !sameBits(plain.verify, traced.verify) {
			t.Fatalf("%s: digests differ with probes", w.name)
		}
		if len(in.faults) == 0 && (plain.sends != traced.sends || plain.makespan != traced.makespan ||
			plain.metrics.CheckpointWaves != traced.metrics.CheckpointWaves) {
			t.Fatalf("%s: simulated statistics differ with probes: sends %d/%d makespan %v/%v waves %d/%d", w.name,
				plain.sends, traced.sends, plain.makespan, traced.makespan,
				plain.metrics.CheckpointWaves, traced.metrics.CheckpointWaves)
		}
		if w.tiered && (plain.metrics.DeltaImages == 0) != (traced.metrics.DeltaImages == 0) {
			t.Fatalf("%s: delta images %d without probes, %d with", w.name, plain.metrics.DeltaImages, traced.metrics.DeltaImages)
		}
		if w.wantDelta && traced.metrics.DeltaImages == 0 {
			t.Fatalf("%s: the storage decorator hid the delta pipeline", w.name)
		}
		st, err := p.summarize()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var sum int64
		for _, v := range st.self {
			sum += v
		}
		if sum != st.rankNs || st.rankNs <= 0 {
			t.Fatalf("%s: self times add up to %d ns, rank time is %d ns", w.name, sum, st.rankNs)
		}
		if st.calls[layerStep] < int64(w.ranks*w.steps) || st.calls[layerCapture] == 0 || p.stages.Load() == 0 {
			t.Fatalf("%s: spans missing: %d steps, %d captures, %d stages", w.name,
				st.calls[layerStep], st.calls[layerCapture], p.stages.Load())
		}
		if len(in.faults) > 0 && (st.restores == 0 || p.loads.Load() == 0 || st.recoveryNs <= 0) {
			t.Fatalf("%s: recovery not traced: %d restores, %d loads, span %d ns", w.name, st.restores, p.loads.Load(), st.recoveryNs)
		}
		path := filepath.Join(t.TempDir(), "spans")
		if err := writeSpanFile(path, p); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spans int64
		for _, n := range st.calls {
			spans += n
		}
		if lines := int64(bytes.Count(written, []byte("\n"))); lines != spans {
			t.Fatalf("%s: wrote %d span lines, recorded %d spans", w.name, lines, spans)
		}
	}
}

// recordingProc implements model.Process by recording each call's name.
type recordingProc struct{ calls []string }

func (r *recordingProc) note(name string)            { r.calls = append(r.calls, name) }
func (r *recordingProc) Rank() int                   { r.note("Rank"); return 0 }
func (r *recordingProc) Size() int                   { r.note("Size"); return 1 }
func (r *recordingProc) Compute(float64)             { r.note("Compute") }
func (r *recordingProc) Now() float64                { r.note("Now"); return 0 }
func (r *recordingProc) Send([]byte, int, int) error { r.note("Send"); return nil }
func (r *recordingProc) Recv([]byte, int, int) (mpi.Status, error) {
	r.note("Recv")
	return mpi.Status{}, nil
}
func (r *recordingProc) Isend([]byte, int, int) (*mpi.Request, error) {
	r.note("Isend")
	return nil, nil
}
func (r *recordingProc) Irecv([]byte, int, int) (*mpi.Request, error) {
	r.note("Irecv")
	return nil, nil
}
func (r *recordingProc) Wait(*mpi.Request) (mpi.Status, error) {
	r.note("Wait")
	return mpi.Status{}, nil
}
func (r *recordingProc) Waitall([]*mpi.Request) ([]mpi.Status, error) {
	r.note("Waitall")
	return nil, nil
}
func (r *recordingProc) Waitany([]*mpi.Request) (int, mpi.Status, error) {
	r.note("Waitany")
	return 0, mpi.Status{}, nil
}
func (r *recordingProc) Test(*mpi.Request) (bool, mpi.Status, error) {
	r.note("Test")
	return false, mpi.Status{}, nil
}
func (r *recordingProc) Testall([]*mpi.Request) (bool, error) { r.note("Testall"); return false, nil }
func (r *recordingProc) Iprobe(int, int) (bool, mpi.Status, error) {
	r.note("Iprobe")
	return false, mpi.Status{}, nil
}
func (r *recordingProc) Probe(int, int) (mpi.Status, error) {
	r.note("Probe")
	return mpi.Status{}, nil
}
func (r *recordingProc) Barrier() error { r.note("Barrier"); return nil }
func (r *recordingProc) AllreduceF64([]float64, []float64, mpi.Op) error {
	r.note("AllreduceF64")
	return nil
}
func (r *recordingProc) ReduceF64([]float64, []float64, mpi.Op, int) error {
	r.note("ReduceF64")
	return nil
}
func (r *recordingProc) BcastBytes([]byte, int) error { r.note("BcastBytes"); return nil }
func (r *recordingProc) AllgatherF64([]float64) ([]float64, error) {
	r.note("AllgatherF64")
	return nil, nil
}
func (r *recordingProc) AllgatherBytes([]byte) ([]byte, error) {
	r.note("AllgatherBytes")
	return nil, nil
}
func (r *recordingProc) AlltoallBytes([]byte, int) ([]byte, error) {
	r.note("AlltoallBytes")
	return nil, nil
}
func (r *recordingProc) DeclarePattern() uint32 { r.note("DeclarePattern"); return 0 }
func (r *recordingProc) BeginIteration(uint32)  { r.note("BeginIteration") }
func (r *recordingProc) EndIteration(uint32)    { r.note("EndIteration") }

// TestTracedProcForwardsEveryMethod calls every model.Process method on the
// wrapper and checks each reached the wrapped Process exactly once.
func TestTracedProcForwardsEveryMethod(t *testing.T) {
	inner := &recordingProc{}
	p := newProbes(1, 1)
	rt := p.ranks[0]
	rt.begin(layerRank, 0)
	rt.begin(layerStep, 0)
	var wrapped model.Process = &tracedProc{inner: inner, p: p, rt: rt}
	v := reflect.ValueOf(wrapped)
	typ := reflect.TypeOf((*model.Process)(nil)).Elem()
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		fn := v.MethodByName(m.Name)
		args := make([]reflect.Value, fn.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(fn.Type().In(j))
		}
		inner.calls = nil
		fn.Call(args)
		if !slices.Equal(inner.calls, []string{m.Name}) {
			t.Fatalf("%s reached the wrapped Process as %v", m.Name, inner.calls)
		}
	}
	if len(rt.open) != 2 {
		t.Fatalf("wrapper left %d spans open, want the 2 it started with", len(rt.open))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of each input.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 5}, [3]float64{0, 3, 6}},
		{[]float64{0.25, 0.5, 4, 8, 16}, [3]float64{0.375, 4, 12}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the metric and workload lists of the
// repository's BENCHMARK.json to what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	type workloadSpec struct{ Name, Why string }
	var spec struct {
		Workloads []workloadSpec
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var code []workloadSpec
	for _, w := range workloads {
		code = append(code, workloadSpec{w.name, w.why})
	}
	if !slices.Equal(code, spec.Workloads) {
		t.Fatalf("workloads: code %v, BENCHMARK.json %v", code, spec.Workloads)
	}
	res := &result{w: workloads[0]}
	for _, c := range []struct {
		what string
		code []metric
		spec []named
	}{{"end_to_end", res.endToEnd(), spec.EndToEnd}, {"per_layer", res.perLayer(), spec.PerLayer}} {
		var got []named
		for _, m := range c.code {
			got = append(got, named{m.name, m.unit})
		}
		if !slices.Equal(got, c.spec) {
			t.Fatalf("%s: code reports %v, BENCHMARK.json lists %v", c.what, got, c.spec)
		}
	}
}

// TestCalibrationRepeats pins that the calibration load computes the same
// cells on every call, so each run's checksum check is meaningful.
func TestCalibrationRepeats(t *testing.T) {
	_, a := calibrate()
	_, b := calibrate()
	if math.Float64bits(a) != math.Float64bits(b) || a == 0 {
		t.Fatalf("calibration checksums %v and %v", a, b)
	}
}
