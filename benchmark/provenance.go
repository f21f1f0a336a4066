package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// provenance identifies the build and the machine a result came from.
type provenance struct {
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   string `json:"vcs_modified,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
}

func readProvenance() provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return p // not Linux: CPU fields stay empty
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			p.CPUModel = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				p.AVX2 = p.AVX2 || fl == "avx2"
				p.FMA = p.FMA || fl == "fma"
			}
			return p // the first processor's entry is enough
		}
	}
	return p
}

// processCPU is the CPU seconds (user + system) the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set size (ru_maxrss).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
