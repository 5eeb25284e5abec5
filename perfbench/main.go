// Command perfbench is the repository benchmark: it runs seeded SPBC
// workloads through the engine's public entry points (mpi.NewWorld,
// core.BuildProfile + clustering.Partition, core.NewEngine, Engine.Run),
// checks every run against its reference twins, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of traced runs) as a
// table followed by one JSON result line.
//
//	perfbench -workload halo-4k -seed 1 -seconds 20 -trace 0
//	perfbench -workload all -seed 1 -seconds 20 -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the workload inputs")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	traceOn := fs.Int("trace", 0, "1 adds traced runs and reports the per-layer metrics")
	spans := fs.String("spans", "", "write the last traced run's spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	opt := options{seconds: *seconds, trace: *traceOn == 1, spans: *spans}

	env := environment(*seed)
	fmt.Printf("perfbench: seed %d, GOMAXPROCS %d, nproc %d, %s, %s\n",
		*seed, env["gomaxprocs"], env["nproc"], env["go"], env["cpu"])
	out := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		res, err := measure(w, *seed, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		report(res, opt, &out, len(ws) > 1)
	}
	line, err := json.Marshal(map[string]any{"env": env})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's tables and adds its figures to the result
// line. With several workloads the metric names are prefixed.
func report(res *result, opt options, out *resultLine, prefix bool) {
	fmt.Printf("\n== %s (%d ranks x %d steps, seed %d, faults %v)\n",
		res.w.name, res.w.ranks, res.w.steps, res.in.seed, res.in.faults)
	fmt.Printf("   %s\n", res.w.why)
	e2e := res.endToEnd()
	printTable(os.Stdout, "end-to-end (timed runs, no probes):", append(e2e, res.extras()...))
	emit := e2e
	if opt.trace {
		layers := res.perLayer()
		printTable(os.Stdout, "per-layer (traced runs; counters from timed runs):", layers)
		if n := len(res.traced); n > 0 {
			st := res.traced[n-1].spans
			var sum int64
			for _, v := range st.self {
				sum += v
			}
			fmt.Printf("  rank time of the last traced run: layer self times + core.other = %.3f ms of %.3f ms summed rank time\n",
				float64(sum)/1e6, float64(st.rankNs)/1e6)
		}
		emit = layers
	}
	for _, f := range res.failures {
		fmt.Printf("  FAIL: %s\n", f)
	}
	out.Correct = out.Correct && res.correct()
	out.Attempted += res.attempted
	out.Failed += res.failed
	for _, m := range emit {
		key := m.name
		if prefix {
			key = res.w.name + "/" + key
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample survived; correct is false
		}
		out.Metrics[key] = jsonMetric{Value: v, Unit: m.unit}
	}
}

// environment records where the figures were measured.
func environment(seed uint64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		cpu = cpuModel(string(b))
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"seed":       seed,
	}
}
