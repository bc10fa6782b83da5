package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// maxWorkers caps the thread count the benchmark uses, so a result from a
// large machine is still a result about a handful of threads.
const maxWorkers = 4

// workerCount is the one parallelism value of a run: GOMAXPROCS and every
// Target.Workers, noise.Options.Workers and serve.Config.TotalWorkers are
// set to it explicitly.
func workerCount() int {
	w := runtime.NumCPU()
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// pinEnvironment fixes what the program under test reads from its
// surroundings. QEMU_CALIBRATION_FILE is pointed at a path that does not
// exist, so perfmodel.Active() falls back to Default() and the auto
// selector makes the same choice on every machine and run — a stray
// ~/.cache/qemu-repro/calibration.json would otherwise change which
// engine is benchmarked. The directory is created inside the checkout
// (outDir) and holds nothing.
func pinEnvironment(outDir string) (workers int, err error) {
	workers = workerCount()
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	missing := filepath.Join(outDir, "no-calibration", "calibration.json")
	if err := os.Setenv("QEMU_CALIBRATION_FILE", missing); err != nil {
		return 0, err
	}
	return workers, nil
}

// machine describes the box a result was taken on; it is printed as the
// header of every run and stored in the result file.
type machine struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	Caches     string `json:"caches"`
}

func describeMachine(workers int) machine {
	return machine{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   cpuModel(),
		Caches:     cacheSizes(),
	}
}

func (m machine) String() string {
	return fmt.Sprintf("%s nproc=%d GOMAXPROCS=%d workers=%d cpu=%q caches=%s",
		m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Workers, m.CPUModel, m.Caches)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches as sysfs reports them ("L1d=48K L2=2048K
// L3=266240K"); "unknown" where sysfs has no cache directory.
func cacheSizes() string {
	var parts []string
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", i)
		size, err := os.ReadFile(filepath.Join(dir, "size"))
		if err != nil {
			break
		}
		level, _ := os.ReadFile(filepath.Join(dir, "level"))
		typ, _ := os.ReadFile(filepath.Join(dir, "type"))
		name := "L" + strings.TrimSpace(string(level))
		switch strings.TrimSpace(string(typ)) {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		parts = append(parts, name+"="+strings.TrimSpace(string(size)))
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB. It is
// read before the oracles start so reference states never count as the
// program's memory.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
