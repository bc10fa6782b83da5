// Command qemu-model evaluates the paper's analytic performance models
// (Eqs. 5 and 6) at full paper scale, printing the Figure 3 weak-scaling
// prediction and the asymptotic QPE cross-over bounds of Section 3.3 —
// and, next to the analytic columns, the measured model the auto-target
// selector prices candidates with (perfmodel.Active, one table on every
// host).
//
// Usage:
//
//	qemu-model [-min-qubits N] [-max-qubits N] [-eff-fft F] [-bmem B] [-bnet B]
//
// The weak-scaling line runs on 2^(n - min-qubits) nodes, so min-qubits
// must be at least 1 and no greater than max-qubits, and the span at most
// 62 qubits; anything else exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

func main() {
	var (
		minQ   = flag.Uint("min-qubits", 28, "weak-scaling start (1 node)")
		maxQ   = flag.Uint("max-qubits", 36, "weak-scaling end")
		effFFT = flag.Float64("eff-fft", 0, "override FFT efficiency (fraction of peak)")
		bmem   = flag.Float64("bmem", 0, "override per-node memory bandwidth (bytes/s)")
		bnet   = flag.Float64("bnet", 0, "override per-node network bandwidth (bytes/s)")
	)
	flag.Parse()
	if *minQ < 1 || *minQ > *maxQ || *maxQ-*minQ > perfmodel.MaxWeakScalingSpan {
		fmt.Fprintf(os.Stderr, "qemu-model: -min-qubits %d -max-qubits %d: want 1 <= min <= max and max - min <= %d (the node count 2^(max-min) must fit an int)\n",
			*minQ, *maxQ, perfmodel.MaxWeakScalingSpan)
		os.Exit(2)
	}

	m := perfmodel.Stampede()
	if *effFFT > 0 {
		m.EffFFT = *effFFT
	}
	if *bmem > 0 {
		m.BMemNode = *bmem
	}
	if *bnet > 0 {
		m.BNetNode = *bnet
	}

	fmt.Printf("machine %q: peak %.0f GF/s, FFT eff %.0f%%, Bmem %.0f GB/s, Bnet %.1f GB/s\n",
		m.Name, m.FLOPSPeak/1e9, m.EffFFT*100, m.BMemNode/1e9, m.BNetNode/1e9)

	meas := perfmodel.Active()
	fmt.Printf("measured model: sweep %.2f, diag %.2f, perm %.2f, fft %.2f, remap %.2f, fill %.2f ns/amp\n\n",
		meas.SweepNs, meas.DiagNs, meas.PermNs, meas.FFTNs, meas.RemapNs, meas.FillNs)

	pts := m.WeakScaling(*minQ, *maxQ)
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Qubits),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.3f s", p.TQFT),
			fmt.Sprintf("%.3f s", p.TFFT),
			fmt.Sprintf("%.1fx", p.Speedup),
			fmt.Sprintf("%.3f s", meas.TQFT(p.Qubits, p.Nodes)),
			fmt.Sprintf("%.3f s", meas.TFFT(p.Qubits, p.Nodes)),
		})
	}
	fmt.Println("Figure 3 model: distributed QFT simulation (Eq. 6) vs FFT emulation (Eq. 5),")
	fmt.Println("with the measured model's predictions alongside")
	fmt.Println(experiments.Table(
		[]string{"qubits", "nodes", "T_QFT (Eq.6)", "T_FFT (Eq.5)", "speedup",
			"T_QFT (meas)", "T_FFT (meas)"}, rows))

	fmt.Println("Section 3.3 asymptotic QPE cross-overs (precision bits b where emulation wins):")
	var xrows [][]string
	for n := uint(8); n <= 14; n++ {
		xrows = append(xrows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", perfmodel.AsymptoticCrossOverSquaring(n, false)),
			fmt.Sprintf("%.1f", perfmodel.AsymptoticCrossOverSquaring(n, true)),
		})
	}
	fmt.Println(experiments.Table([]string{"n", "b (zgemm, 2n)", "b (Strassen, 1.8n)"}, xrows))
}
