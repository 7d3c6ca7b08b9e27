package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"enhancedbhpo/internal/mat"
)

// hostInfo describes the machine and build a result was measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"goarch":       runtime.GOARCH,
		"kernel":       mat.ActiveKernel().String(),
		"cpu_features": mat.CPUFeatures(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
