// Command benchmark is the repository's benchmark: six seeded,
// oracle-checked workloads on the path qemu-serve runs (qasm.ParseString,
// backend.Compile, backend.New/Run/RunUnits/SampleMany, noise.Run,
// serve.Service.Handler), with per-layer numbers traced from outside the
// program. BENCHMARK.json at the repository root names the metrics, their
// bounds and why each workload exists; README.md in this directory
// explains how to read the output. The directory is a module of its own
// (go.mod replaces the program's module with the checkout's source);
// run.sh builds it and runs it from the repository root:
//
//	bash benchmark/run.sh                         all six workloads
//	bash benchmark/run.sh --trace 1               plus the traced pass
//	bash benchmark/run.sh --workload serve-mix    one workload, in-process
//	bash benchmark/run.sh -compare a.json b.json  gate two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is where the benchmark's contract lives, relative to the
// directory the command is run from (the repository root).
const specPath = "BENCHMARK.json"

func readSpec(path string) (*spec, error) {
	var s spec
	return &s, readJSON(path, &s)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload in this process (default: all six, each in a child process)")
		seed    = fs.Uint64("seed", 1, "seed of the input generators")
		seconds = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "tiny sizes and a handful of operations, oracles on")
		compare = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	workers, err := pinEnvironment(*outDir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	ctx := &runCtx{Seed: *seed, Seconds: *seconds, Workers: workers,
		Smoke: *smoke, Trace: *trace != 0, OutDir: *outDir}
	if *name != "" {
		return runOne(sp, ctx, *name, stdout, stderr)
	}
	return runAll(sp, ctx, stdout, stderr)
}

// outcomePath is where a single-workload run leaves its outcome for the
// parent to collect.
func outcomePath(outDir, workload string, trace bool) string {
	suffix := ""
	if trace {
		suffix = "-trace"
	}
	return filepath.Join(outDir, "outcome-"+workload+suffix+".json")
}

// runOne runs one workload in this process, prints its metrics, writes its
// outcome file and ends with the contract line. The exit code is non-zero
// when any operation failed or an oracle disagreed.
func runOne(sp *spec, ctx *runCtx, name string, stdout, stderr io.Writer) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v %s\n", name, ctx.Seed, ctx.Seconds, ctx.Trace,
		describeMachine(ctx.Workers))
	o, err := w.Run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	o.printLines(stdout)
	if err := writeJSON(outcomePath(ctx.OutDir, name, ctx.Trace), o); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := contract(sp, o, ctx.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !o.Correct || o.Failed > 0 {
		return 1
	}
	return 0
}

// contract builds the last output line: every end_to_end metric of
// BENCHMARK.json (untraced run) or every per_layer metric (traced run).
// An end-to-end metric the workload did not produce is an error; a layer
// metric it did not produce reads 0 — its path bypasses that layer.
func contract(sp *spec, o *outcome, trace bool) (*contractLine, error) {
	line := &contractLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: metrics{}}
	if !trace {
		for _, ms := range sp.EndToEnd {
			m, ok := o.EndToEnd[ms.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
			}
			line.Metrics[ms.Name] = m
		}
		return line, nil
	}
	for _, ms := range sp.PerLayer {
		m, ok := o.PerLayer[ms.Name]
		if !ok {
			m = metric{Value: 0, Unit: ms.Unit}
		}
		line.Metrics[ms.Name] = m
	}
	for name := range o.PerLayer {
		if _, listed := line.Metrics[name]; !listed {
			return nil, fmt.Errorf("layer metric %s is not listed in %s", name, specPath)
		}
	}
	return line, nil
}

// runAll runs every workload in a fresh child process of this binary, so
// peak memory and lazily built tables are per workload, then writes the
// combined result file. With tracing on, each workload runs twice: the
// untraced pass for the end-to-end numbers and the traced pass for the
// per-layer ones.
func runAll(sp *spec, ctx *runCtx, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	res := &resultFile{Machine: describeMachine(ctx.Workers), Seed: ctx.Seed, Seconds: ctx.Seconds,
		Workloads: map[string]*outcome{}}
	fmt.Fprintf(stdout, "# %s\n", res.Machine)
	code := 0
	passes := []bool{false}
	if ctx.Trace {
		passes = append(passes, true)
	}
	for _, w := range workloads {
		for _, traced := range passes {
			traceArg := "0"
			if traced {
				traceArg = "1"
			}
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(ctx.Seed),
				"--seconds", fmt.Sprint(ctx.Seconds), "--out", ctx.OutDir, "--trace", traceArg}
			if ctx.Smoke {
				args = append(args, "--smoke")
			}
			// A stale outcome must not stand in for a child that died.
			os.Remove(outcomePath(ctx.OutDir, w.Name, traced))
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				code = 1
			}
			o := new(outcome)
			if err := readJSON(outcomePath(ctx.OutDir, w.Name, traced), o); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			if prev := res.Workloads[w.Name]; prev != nil {
				// The traced pass only contributes its layer metrics.
				prev.PerLayer = o.PerLayer
				prev.Correct = prev.Correct && o.Correct
				continue
			}
			res.Workloads[w.Name] = o
		}
	}
	path := filepath.Join(ctx.OutDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s\n", path)
	return code
}
