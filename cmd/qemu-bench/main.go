// Command qemu-bench regenerates the paper's evaluation: every figure and
// table of Section 4, on the repository's substrates.
//
// Usage:
//
//	qemu-bench [-experiment all|fig1|...|fig6|table2|measure|mathfunc|fusion|emulate|cluster|cluster-emulate|auto]
//	           [-quick] [-max-sim-m M] [-max-emu-m M] [-local-qubits L]
//	           [-max-nodes P] [-max-qubits N] [-max-measured-n N] [-fuse-width K]
//
// Each experiment prints an aligned table with the same rows/series the
// paper reports; absolute times are machine-dependent, the shape (who
// wins, by what factor, where cross-overs fall) is the reproduction target.
// Timed series run through backend.Compile and Backend.Run, the path
// qemu-run and qemu-serve execute (see internal/experiments). Regressions
// are gated by the repository benchmark (BENCHMARK.json, benchmark/), not
// by these tables.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// overrides are the command-line size overrides; zero means "not given".
type overrides struct {
	maxSimM, maxEmuM, localQubits, maxQubits, maxMeasuredN uint
	maxNodes, fuseWidth                                    int
}

// experiment is what qemu-bench knows about one sweep: the name
// -experiment selects it by and a function that sizes it (default or quick,
// then the overrides it honours), runs it and returns the printed table.
type experiment struct {
	name string
	run  func(quick bool, o overrides) string
}

var table = []experiment{
	{"fig1", func(quick bool, o overrides) string {
		cfg := experiments.DefaultFig1()
		if quick {
			cfg.MaxSimM, cfg.MaxEmuM = 4, 5
		}
		cfg.MaxSimM, cfg.MaxEmuM = cmp.Or(o.maxSimM, cfg.MaxSimM), cmp.Or(o.maxEmuM, cfg.MaxEmuM)
		return experiments.FormatArith(
			"Figure 1: multiplication of two m-bit numbers (n = 3m+1 qubits)", experiments.Fig1(cfg))
	}},
	{"fig2", func(quick bool, o overrides) string {
		cfg := experiments.DefaultFig2()
		if quick {
			cfg.MaxSimM, cfg.MaxEmuM = 3, 4
		}
		cfg.MaxSimM, cfg.MaxEmuM = cmp.Or(o.maxSimM, cfg.MaxSimM), cmp.Or(o.maxEmuM, cfg.MaxEmuM)
		return experiments.FormatArith(
			"Figure 2: division of two m-bit numbers (n = 4m+2 qubits incl. work)", experiments.Fig2(cfg))
	}},
	{"fig3", func(quick bool, o overrides) string {
		return experiments.FormatFig3(experiments.Fig3(weakScaling(quick, o))) + "\n" + modelTable()
	}},
	{"fig4", func(quick bool, o overrides) string {
		return experiments.FormatFig4(experiments.Fig4(weakScaling(quick, o)))
	}},
	{"fig5", func(quick bool, o overrides) string {
		return experiments.FormatSingleNode("Figure 5: single-node QFT across simulator back-ends",
			experiments.Fig5(singleNode(experiments.DefaultFig5(), quick, o)))
	}},
	{"fig6", func(quick bool, o overrides) string {
		return experiments.FormatSingleNode("Figure 6: single-node entangling operation across back-ends",
			experiments.Fig6(singleNode(experiments.DefaultFig6(), quick, o)))
	}},
	{"table2", func(quick bool, o overrides) string {
		cfg := experiments.DefaultTable2()
		if quick {
			cfg.MaxMeasuredN = 7
		}
		cfg.MaxMeasuredN = cmp.Or(o.maxMeasuredN, cfg.MaxMeasuredN)
		return experiments.FormatTable2(experiments.Table2(cfg))
	}},
	{"measure", func(quick bool, _ overrides) string {
		n := uint(20)
		if quick {
			n = 14
		}
		return experiments.FormatMeasure(experiments.Measure34(n, []int{100, 10000, 1000000}))
	}},
	{"mathfunc", func(quick bool, _ overrides) string {
		maxM := uint(12)
		if quick {
			maxM = 8
		}
		return experiments.FormatMathFunc(experiments.MathFunc(4, maxM))
	}},
	{"fusion", func(quick bool, o overrides) string {
		cfg := experiments.DefaultFusion()
		if quick {
			cfg.Qubits, cfg.MaxWidth = 16, 4
		}
		cfg.MaxWidth = cmp.Or(o.fuseWidth, cfg.MaxWidth)
		return experiments.FormatFusion(experiments.Fusion(cfg))
	}},
	{"emulate", func(quick bool, o overrides) string {
		cfg := experiments.DefaultEmulate()
		if quick {
			cfg = experiments.QuickEmulate()
		}
		cfg.FuseWidth = cmp.Or(o.fuseWidth, cfg.FuseWidth)
		return experiments.FormatEmulate(experiments.Emulate(cfg))
	}},
	{"cluster", func(quick bool, o overrides) string {
		cfg := experiments.DefaultCluster()
		if quick {
			cfg.LocalQubits = 12
		}
		cfg.LocalQubits, cfg.MaxNodes = cmp.Or(o.localQubits, cfg.LocalQubits), cmp.Or(o.maxNodes, cfg.MaxNodes)
		cfg.FuseWidth = cmp.Or(o.fuseWidth, cfg.FuseWidth)
		return experiments.FormatCluster(experiments.Cluster(cfg))
	}},
	{"cluster-emulate", func(quick bool, o overrides) string {
		cfg := experiments.DefaultClusterEmulate()
		if quick {
			cfg.LocalQubits = 12
		}
		cfg.LocalQubits, cfg.MaxNodes = cmp.Or(o.localQubits, cfg.LocalQubits), cmp.Or(o.maxNodes, cfg.MaxNodes)
		cfg.FuseWidth = cmp.Or(o.fuseWidth, cfg.FuseWidth)
		return experiments.FormatClusterEmulate(experiments.ClusterEmulate(cfg))
	}},
	{"auto", func(quick bool, o overrides) string {
		cfg := experiments.DefaultAuto()
		if quick {
			cfg = experiments.QuickAuto()
		}
		cfg.QFTQubits = cmp.Or(o.maxQubits, cfg.QFTQubits)
		return experiments.FormatAuto(experiments.Auto(cfg))
	}},
}

// weakScaling sizes the fig3/fig4 sweep.
func weakScaling(quick bool, o overrides) experiments.WeakScalingConfig {
	cfg := experiments.DefaultWeakScaling()
	if quick {
		cfg.LocalQubits, cfg.MaxNodes = 12, 8
	}
	cfg.LocalQubits, cfg.MaxNodes = cmp.Or(o.localQubits, cfg.LocalQubits), cmp.Or(o.maxNodes, cfg.MaxNodes)
	return cfg
}

// singleNode sizes the fig5/fig6 sweep from its default.
func singleNode(cfg experiments.SingleNodeConfig, quick bool, o overrides) experiments.SingleNodeConfig {
	if quick {
		cfg.MinQubits, cfg.MaxQubits = 12, 16
	}
	cfg.MaxQubits = cmp.Or(o.maxQubits, cfg.MaxQubits)
	return cfg
}

// names lists what -experiment accepts.
func names() string {
	all := []string{"all"}
	for _, e := range table {
		all = append(all, e.name)
	}
	return strings.Join(all, ", ")
}

func main() {
	var o overrides
	which := flag.String("experiment", "all", "which experiment to run ("+names()+")")
	quick := flag.Bool("quick", false, "shrink every sweep for a fast smoke run")
	flag.UintVar(&o.maxSimM, "max-sim-m", 0, "override: largest simulated operand width for fig1/fig2")
	flag.UintVar(&o.maxEmuM, "max-emu-m", 0, "override: largest emulated operand width for fig1/fig2")
	flag.UintVar(&o.localQubits, "local-qubits", 0, "override: per-node qubits for fig3/fig4")
	flag.IntVar(&o.maxNodes, "max-nodes", 0, "override: largest emulated node count for fig3/fig4")
	flag.UintVar(&o.maxQubits, "max-qubits", 0, "override: largest register for fig5/fig6 and the auto sweep's QFT")
	flag.UintVar(&o.maxMeasuredN, "max-measured-n", 0, "override: largest measured size for table2")
	flag.IntVar(&o.fuseWidth, "fuse-width", 0, "override: largest fusion width for the fusion sweep, fusion width for emulate, cluster and cluster-emulate")
	flag.Parse()

	fmt.Printf("qemu-bench: %d hardware threads (GOMAXPROCS)\n\n", runtime.GOMAXPROCS(0))
	ran := false
	for _, e := range table {
		if *which == "all" || *which == e.name {
			ran = true
			fmt.Println(e.run(*quick, o))
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n", *which, names())
		flag.Usage()
		os.Exit(2)
	}
}

func modelTable() string {
	m := perfmodel.Stampede()
	pts := m.WeakScaling(28, 36)
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Qubits),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.2f s", p.TQFT),
			fmt.Sprintf("%.2f s", p.TFFT),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	return "Eq. 5/6 model at paper scale (Stampede-like parameters)\n" +
		experiments.Table([]string{"qubits", "nodes", "T_QFT (Eq.6)", "T_FFT (Eq.5)", "speedup"}, rows)
}
