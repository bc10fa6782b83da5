package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// outcome is everything one workload run reports.
type outcome struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds the gated metrics of BENCHMARK.json (untraced pass);
	// PerLayer the traced pass's layer metrics. A run fills one of them.
	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
	// Raw holds the same measurements in wall-clock units (seconds,
	// milliseconds, per second) plus sample counts — what a user of the
	// system sees on this machine at this moment. Not gated: on a shared
	// host they drift further than any useful bound.
	Raw metrics `json:"raw,omitempty"`
	// Labels are non-numeric facts: the target the auto selector chose,
	// failure reasons.
	Labels map[string]string `json:"labels,omitempty"`
}

func newOutcome(workload string) *outcome {
	return &outcome{Workload: workload, Correct: true,
		EndToEnd: metrics{}, PerLayer: metrics{}, Raw: metrics{}, Labels: map[string]string{}}
}

// fail records failed operations and why; the first reason is kept.
func (o *outcome) fail(count int, format string, args ...any) {
	if count <= 0 {
		return
	}
	o.Failed += count
	o.Correct = false
	if _, ok := o.Labels["failure"]; !ok {
		o.Labels["failure"] = fmt.Sprintf(format, args...)
	}
}

// harnessTimes records what the benchmark itself spent generating inputs
// and checking outputs; neither is part of any other metric.
func (o *outcome) harnessTimes(trace bool, generatorS, oracleS float64) {
	group := o.Raw
	if trace {
		group = o.PerLayer
	}
	group.set("bench.generator_s", generatorS, "s")
	group.set("bench.oracle_s", oracleS, "s")
}

// errorShare is (failed + refused + oracle-mismatched) / attempted.
func (o *outcome) errorShare() float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// printLines writes every metric as "workload metric value unit", sorted
// by name within each group.
func (o *outcome) printLines(w io.Writer) {
	for _, group := range []metrics{o.EndToEnd, o.Raw, o.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Fprintf(w, "%s %s %.6g %s\n", o.Workload, name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s error_share %.6g fraction\n", o.Workload, o.errorShare())
	labels := make([]string, 0, len(o.Labels))
	for k := range o.Labels {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, k := range labels {
		fmt.Fprintf(w, "# %s %s: %s\n", o.Workload, k, o.Labels[k])
	}
}

// contractLine is the last line of a single-workload run: the object the
// driver parses. metrics holds every end_to_end metric (trace 0) or every
// per_layer metric (trace 1) named in BENCHMARK.json; a layer metric the
// workload's path bypasses reads 0.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// resultFile is benchmark/out/result.json: one run of some or all
// workloads, the input of -compare.
type resultFile struct {
	Machine   machine             `json:"machine"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Workloads map[string]*outcome `json:"workloads"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
