package main

import (
	"bytes"
	"fmt"
	"math"

	"vantage/internal/exp"
	"vantage/internal/service"
	"vantage/internal/sim"
)

// The benchmark's correctness checks, as pure functions of what the
// workloads observed, so each can be shown to fail on a corrupted input
// (checks_test.go).

// checkMix holds one mix's sequential recompute (baseline first, then the
// schemes in Fig7's order) against Fig7's row idx, and checks each run's
// per-core counters.
func checkMix(instrLimit uint64, results []sim.Result, fig7 exp.ThroughputResult, idx int) []string {
	var errs []string
	if len(results) != len(fig7.Curves)+1 {
		return []string{fmt.Sprintf("%d recomputed runs for %d schemes plus the baseline", len(results), len(fig7.Curves))}
	}
	base := results[0].Throughput
	if base != fig7.BaselineThroughput[idx] {
		errs = append(errs, fmt.Sprintf("baseline throughput %v, Fig7 reported %v", base, fig7.BaselineThroughput[idx]))
	}
	if base <= 0 {
		base = 1e-9 // as exp.RunThroughput does
	}
	for k, c := range fig7.Curves {
		if got := results[k+1].Throughput / base; got != c.PerMix[idx] {
			errs = append(errs, fmt.Sprintf("%s relative throughput %v, Fig7 reported %v", c.Scheme, got, c.PerMix[idx]))
		}
	}
	for k, r := range results {
		sum := 0.0
		for i, c := range r.Cores {
			if c.Instructions < instrLimit {
				errs = append(errs, fmt.Sprintf("run %d core %d retired %d instructions, limit %d", k, i, c.Instructions, instrLimit))
			}
			if c.IPC > 1 {
				errs = append(errs, fmt.Sprintf("run %d core %d IPC %v > 1", k, i, c.IPC))
			}
			if c.L2Accesses != c.L1Misses {
				errs = append(errs, fmt.Sprintf("run %d core %d: %d L2 accesses, %d L1 misses", k, i, c.L2Accesses, c.L1Misses))
			}
			if c.Cycles > 0 {
				sum += float64(c.Instructions) / float64(c.Cycles)
			}
		}
		if sum != r.Throughput {
			errs = append(errs, fmt.Sprintf("run %d: sum of IPC from raw counts %v, Throughput %v", k, sum, r.Throughput))
		}
	}
	return errs
}

// valueFor writes the value the client stores under tenant/key into dst
// (valueLen bytes): the key's FNV-1a hash in hex, repeated. A hit must
// return exactly these bytes.
func valueFor(dst []byte, tenant, key string) []byte {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * 1099511628211
	}
	h = (h ^ '/') * 1099511628211
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	const hexd = "0123456789abcdef"
	dst = dst[:0]
	for len(dst) < valueLen {
		dst = append(dst, hexd[(h>>(4*(uint(len(dst))%16)))&15])
	}
	return dst
}

// checkValue reports whether got is the value stored under tenant/key.
func checkValue(scratch, got []byte, tenant, key string) bool {
	return bytes.Equal(got, valueFor(scratch, tenant, key))
}

// clientCounts is one tenant's request counts as the client saw them.
type clientCounts struct {
	Gets, Hits, Puts uint64
}

// checkCounts holds the client's counts of one tenant against the server's
// TenantStats summed over nodes, and checks each node's accounting
// identity gets = hits + misses + expired.
func checkCounts(tenant string, cl clientCounts, nodes []service.TenantStats) []string {
	var errs []string
	var sum clientCounts
	for i, ts := range nodes {
		if ts.Gets != ts.Hits+ts.Misses+ts.Expired {
			errs = append(errs, fmt.Sprintf("%s node %d: gets %d != hits %d + misses %d + expired %d", tenant, i, ts.Gets, ts.Hits, ts.Misses, ts.Expired))
		}
		sum.Gets += ts.Gets
		sum.Hits += ts.Hits
		sum.Puts += ts.Puts
	}
	if sum != cl {
		errs = append(errs, fmt.Sprintf("%s: client saw gets/hits/puts %d/%d/%d, servers report %d/%d/%d",
			tenant, cl.Gets, cl.Hits, cl.Puts, sum.Gets, sum.Hits, sum.Puts))
	}
	return errs
}

// zipfProbs returns the popularity of each of n ranks under the Zipf law
// with exponent alpha that workload.NewZipfApp samples.
func zipfProbs(n int, alpha float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// cheHitRate is Che's approximation of an LRU cache's hit rate for
// independent requests with popularities p, when the cache holds occupancy
// lines of this stream plus, per request of it, extraPerReq lines of a
// co-runner whose keys never repeat (0 for a private partition). It solves
// sum_i(1 - exp(-p_i T)) + extraPerReq*T = occupancy for the characteristic
// time T by bisection and returns sum_i p_i(1 - exp(-p_i T)).
func cheHitRate(p []float64, occupancy, extraPerReq float64) float64 {
	fill := func(t float64) float64 {
		s := extraPerReq * t
		for _, pi := range p {
			s += 1 - math.Exp(-pi*t)
		}
		return s
	}
	if occupancy <= 0 {
		return 0
	}
	if occupancy >= float64(len(p)) && extraPerReq == 0 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for fill(hi) < occupancy {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if fill(mid) < occupancy {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	h := 0.0
	for _, pi := range p {
		h += pi * (1 - math.Exp(-pi*t))
	}
	return h
}

// cheTolerance is the absolute hit-rate band around Che's estimate that the
// friendly tenant must land in. Vantage is not exact LRU: demoted lines
// keep hitting from the unmanaged region until evicted, and a partition's
// size wobbles around its target between repartitions. Over 20 runs of
// both service workloads the measured rate sat within 0.003 of the
// estimate, and within 0.005 in every shorter run seen (README.md). At a
// hit rate near 0.6, 0.01 is about a 3.5% error in the reported occupancy.
const cheTolerance = 0.01

// checkChe holds a measured hit rate against Che's estimate.
func checkChe(measured, estimate float64) []string {
	if math.Abs(measured-estimate) > cheTolerance {
		return []string{fmt.Sprintf("friendly hit rate %.4f is outside %.4f ± %.2f (Che's LRU estimate at the reported occupancy)", measured, estimate, cheTolerance)}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
