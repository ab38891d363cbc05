package main

import (
	"math"
	"testing"

	"vantage/internal/exp"
	"vantage/internal/service"
	"vantage/internal/sim"
)

// Each of the benchmark's checks passes on consistent input and fails once
// the input is corrupted.

func TestCheckValueFailsOnFlippedByte(t *testing.T) {
	v := valueFor(nil, "friendly", "1f3a")
	if len(v) != valueLen {
		t.Fatalf("value has %d bytes, want %d", len(v), valueLen)
	}
	if !checkValue(nil, v, "friendly", "1f3a") {
		t.Fatal("the stored value does not check")
	}
	for i := range v {
		bad := append([]byte(nil), v...)
		bad[i] ^= 0x01
		if checkValue(nil, bad, "friendly", "1f3a") {
			t.Fatalf("value with byte %d flipped passes", i)
		}
	}
	if checkValue(nil, v, "friendly", "1f3b") || checkValue(nil, v, "stream", "1f3a") {
		t.Fatal("a value passes under another key or tenant")
	}
}

func TestCheckCountsFailsOnMismatch(t *testing.T) {
	nodes := []service.TenantStats{
		{Gets: 100, Hits: 60, Misses: 40, Puts: 40},
		{Gets: 50, Hits: 20, Misses: 28, Expired: 2, Puts: 30},
	}
	cl := clientCounts{Gets: 150, Hits: 80, Puts: 70}
	if errs := checkCounts("friendly", cl, nodes); len(errs) != 0 {
		t.Fatalf("consistent counts fail: %v", errs)
	}
	hits := cl
	hits.Hits++
	if errs := checkCounts("friendly", hits, nodes); len(errs) != 1 {
		t.Fatalf("client/server hit-count mismatch gives %v", errs)
	}
	puts := cl
	puts.Puts--
	if errs := checkCounts("friendly", puts, nodes); len(errs) != 1 {
		t.Fatalf("client/server put-count mismatch gives %v", errs)
	}
	broken := append([]service.TenantStats(nil), nodes...)
	broken[1].Misses++
	if errs := checkCounts("friendly", cl, broken); len(errs) != 1 {
		t.Fatalf("gets != hits+misses+expired gives %v", errs)
	}
}

// fakeMix returns a self-consistent recompute of one mix (baseline plus
// three schemes, two cores each) and the Fig7 row it must match.
func fakeMix() ([]sim.Result, exp.ThroughputResult) {
	mk := func(cycles ...uint64) sim.Result {
		var r sim.Result
		for _, c := range cycles {
			s := sim.CoreStats{Instructions: 1000, Cycles: c, L1Misses: 70, L2Accesses: 70}
			s.IPC = float64(s.Instructions) / float64(s.Cycles)
			r.Cores = append(r.Cores, s)
			r.Throughput += s.IPC
		}
		return r
	}
	results := []sim.Result{mk(4000, 2500), mk(3000, 2400), mk(3900, 2600), mk(3500, 2300)}
	fig7 := exp.ThroughputResult{MixIDs: []string{"nnss1", "nfff1"}, BaselineThroughput: []float64{1, results[0].Throughput}}
	for k, name := range []string{"Vantage-Z4/52", "WayPart", "PIPP"} {
		fig7.Curves = append(fig7.Curves, exp.SchemeCurve{Scheme: name, PerMix: []float64{1, results[k+1].Throughput / results[0].Throughput}})
	}
	return results, fig7
}

func TestCheckMixFailsOnCorruptedRecompute(t *testing.T) {
	const limit = 1000
	results, fig7 := fakeMix()
	if errs := checkMix(limit, results, fig7, 1); len(errs) != 0 {
		t.Fatalf("consistent recompute fails: %v", errs)
	}
	corrupt := []struct {
		name string
		f    func(r []sim.Result)
	}{
		{"scheme throughput differs", func(r []sim.Result) {
			r[1].Cores[0].Cycles--
			r[1].Cores[0].IPC = float64(r[1].Cores[0].Instructions) / float64(r[1].Cores[0].Cycles)
			r[1].Throughput = r[1].Cores[0].IPC + r[1].Cores[1].IPC
		}},
		{"baseline throughput differs", func(r []sim.Result) { r[0].Throughput *= 1.0000001 }},
		{"too few instructions", func(r []sim.Result) { r[2].Cores[1].Instructions = limit - 1 }},
		{"IPC above 1", func(r []sim.Result) { r[3].Cores[0].IPC = 1.5 }},
		{"L2 accesses differ from L1 misses", func(r []sim.Result) { r[2].Cores[0].L2Accesses++ }},
		{"throughput is not the sum of IPC", func(r []sim.Result) { r[3].Throughput += 1e-12 }},
	}
	for _, c := range corrupt {
		r, f := fakeMix()
		for i := range r {
			r[i].Cores = append([]sim.CoreStats(nil), r[i].Cores...)
		}
		c.f(r)
		if errs := checkMix(limit, r, f, 1); len(errs) == 0 {
			t.Errorf("%s: check passes", c.name)
		}
	}
}

func TestCheHitRate(t *testing.T) {
	// Uniform popularity: the hit rate is the cached share of the keys.
	uni := make([]float64, 1000)
	for i := range uni {
		uni[i] = 1.0 / 1000
	}
	if h := cheHitRate(uni, 250, 0); math.Abs(h-0.25) > 1e-9 {
		t.Fatalf("uniform, a quarter cached: hit rate %v, want 0.25", h)
	}
	// A co-runner that never reuses keys takes capacity and hit rate away.
	z := zipfProbs(4096, friendlyAlpha)
	alone, shared := cheHitRate(z, 1024, 0), cheHitRate(z, 1024, 1)
	if !(shared < alone && alone < cheHitRate(z, 2048, 0)) {
		t.Fatalf("zipf: alone %v, shared %v: not ordered", alone, shared)
	}
}

func TestCheckCheFailsOutsideTolerance(t *testing.T) {
	est := cheHitRate(zipfProbs(65536, friendlyAlpha), 31000, 0)
	if errs := checkChe(est+cheTolerance/2, est); len(errs) != 0 {
		t.Fatalf("hit rate within tolerance fails: %v", errs)
	}
	if errs := checkChe(est-2*cheTolerance, est); len(errs) == 0 {
		t.Fatal("hit rate below the estimate by twice the tolerance passes")
	}
	if errs := checkChe(est+2*cheTolerance, est); len(errs) == 0 {
		t.Fatal("hit rate above the estimate by twice the tolerance passes")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
