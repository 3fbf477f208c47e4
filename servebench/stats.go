package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// beyond is how many samples must lie above a reported percentile: a p90
// over fewer than 100 samples would rest on fewer than ten observations
// and move with every outlier.
const beyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// method. It refuses a quantile with fewer than ten samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if need := int(math.Ceil(beyond/(1-p) - 1e-9)); len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p*100, need, len(xs))
	}
	return quantile(xs, p), nil
}

// quantile is the nearest-rank p-quantile of xs without the sample-count
// rule, for per-layer diagnostics that carry no bound; 0 when xs is empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line) // "VmHWM:", "<n>", "kB"
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
