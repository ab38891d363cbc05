package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs one workload n times, each in a fresh process (so every
// set-up is cold) with seeds seed..seed+n-1, and prints per metric the
// median, the quartiles as Python's statistics.quantiles(n=4) gives them,
// and the spread: the interquartile distance as a share of the median. The
// bounds in BENCHMARK.json are set from these spreads.
func steadiness(workload string, seed uint64, n, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var failedShares []float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: checks failed", s)
		}
		failedShares = append(failedShares, float64(res.Failed)/float64(res.Attempted))
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "vbench: steadiness %s seed %d done\n", workload, s)
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs of %d s, seeds %d..%d\n", workload, n, seconds, seed, seed+uint64(n)-1)
	fmt.Printf("%-34s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		fmt.Printf("%-34s %14.6g %14.6g %14.6g %7.2f%%  %s  %.6g\n", k, q1, q2, q3, 100*ratio(q3-q1, q2), units[k], vals[k])
	}
	fmt.Printf("failed share per run: %v\n", failedShares)
	return nil
}
