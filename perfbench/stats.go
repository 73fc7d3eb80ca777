package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile returns the highest percentile, at most the 99th, that
// leaves at least tailBeyond samples beyond it: its quantile, its value
// and how many samples lie beyond it.
func tailPercentile(xs []float64) (q, v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	rank := n - max(n/100, tailBeyond) // p99 by nearest rank is n - floor(n/100)
	rank = max(rank, 1)
	s := sorted(xs)
	return float64(rank) / float64(n), s[rank-1], n - rank
}

// peakRSSMB is the process's peak resident set in MiB, read from
// /proc/self/status (VmHWM); elsewhere it falls back to the memory the Go
// runtime obtained from the OS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, perr := strconv.ParseFloat(fields[1], 64); perr == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
