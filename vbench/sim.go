package main

import (
	"fmt"
	"time"

	"vantage/internal/cache"
	"vantage/internal/core"
	"vantage/internal/ctrl"
	"vantage/internal/exp"
	"vantage/internal/hash"
	"vantage/internal/sim"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// The sim-fig7 workload times exp.Fig7 on the 32-core unit-scale machine
// with a 25k-instruction window over six mixes: the Fig 7 microcosm.
//
// The six mixes are the set machine seed 2011 selects, whatever --seed is.
// A per-seed mix set changes which workload classes are simulated, and that
// moved vantage_gmean between 1.11 and 1.32 and the call's host time between
// 12.9 s and 16.6 s over five seeds, wider than any bound. --seed instead
// picks which of the six mixes the correctness check recomputes (and, in a
// traced run, which mix the layer decomposition replays), so the check
// covers every mix across seeds.

// fig7IDs is the microcosm's mix set at machine seed 2011, in Fig7's order.
var fig7IDs = []string{"nnft1", "nfts1", "nfff1", "nntt1", "nnss1", "fftt1"}

// friendlyMixID is the mix whose cache-friendly cores give sim-fig7's
// hit_rate_friendly: three quarters of its 32 cores run friendly apps.
const friendlyMixID = "nfff1"

// schemeKeys names Fig7's baseline and schemes, in the order of fig7Schemes.
var schemeKeys = []string{"lru", "vantage", "waypart", "pipp"}

func fig7Schemes() []exp.Scheme {
	return []exp.Scheme{exp.LRUBaseline(), exp.DefaultVantageScheme(), exp.WayPartScheme(), exp.PIPPScheme()}
}

func fig7Machine() exp.Machine {
	m := exp.LargeCMP(exp.ScaleUnit)
	m.InstrLimit = 25_000
	return m
}

func runSimFig7(o options) (*report, error) {
	rep := newReport()
	m := fig7Machine()
	var ids []string
	for _, mix := range m.Mixes(len(fig7IDs)) {
		ids = append(ids, mix.ID)
	}
	if fmt.Sprint(ids) != fmt.Sprint(fig7IDs) {
		return nil, fmt.Errorf("microcosm mix set is %v, want %v", ids, fig7IDs)
	}
	rep.e2e("setup_s", sinceStart().Seconds())

	tr := &tracer{on: o.trace}
	var calls []float64
	var first exp.ThroughputResult
	start := time.Now()
	for i := 0; ; i++ {
		sp := tr.begin("exp.Fig7", -1, int64(i))
		t0 := time.Now()
		r := exp.Fig7(m, len(fig7IDs), nil)
		calls = append(calls, time.Since(t0).Seconds())
		tr.end(sp)
		if i == 0 {
			first = r
		} else if err := sameFig7(first, r); err != nil {
			rep.fail("Fig7 call %d differs from the first: %v", i, err)
		}
		if time.Since(start) >= o.dur {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	if fmt.Sprint(first.MixIDs) != fmt.Sprint(fig7IDs) {
		rep.fail("Fig7 ran mixes %v, want %v", first.MixIDs, fig7IDs)
		return rep, nil
	}
	sims := len(calls) * len(fig7IDs) * len(schemeKeys)
	rep.attempted = int64(sims)

	// Checks, outside the timing: recompute one mix sequentially through the
	// public record/filter/replay pipeline and hold it against the call.
	idx := int(o.seed % uint64(len(fig7IDs)))
	mix, err := m.Mix(fig7IDs[idx])
	if err != nil {
		return nil, err
	}
	results := recomputeMix(m, mix)
	for _, e := range checkMix(m.InstrLimit, results, first, idx) {
		rep.fail("mix %s: %s", mix.ID, e)
	}

	fidx := indexOf(fig7IDs, friendlyMixID)
	fmix, err := m.Mix(friendlyMixID)
	if err != nil {
		return nil, err
	}
	vres := results[1]
	if fidx != idx {
		rec := m.Record(fmix)
		vres = m.RunMixMiss(fmix.ID, exp.MissSets(m.RecordMisses(rec), 1)[0], exp.DefaultVantageScheme())
		if got, want := vres.Throughput/first.BaselineThroughput[fidx], first.Curves[0].PerMix[fidx]; got != want {
			rep.fail("mix %s: recomputed Vantage relative throughput %v, Fig7 reported %v", fmix.ID, got, want)
		}
	}
	hit, err := friendlyHitRate(fmix, vres)
	if err != nil {
		return nil, err
	}

	runS := median(calls)
	rep.e2e("run_s", runS)
	rep.e2e("vantage_gmean", first.Curves[0].Summary.GeoMean)
	rep.e2e("ops_per_s", float64(sims)/elapsed)
	rep.e2e("batch_p50_us", runS/float64(len(fig7IDs))*1e6)
	rep.e2e("hit_rate_friendly", hit)
	if o.trace {
		rep.layer("trace.run_s", runS)
		if err := simLayers(rep, m, mix, results, tr); err != nil {
			return nil, err
		}
		if err := writeSpans(o.tracePath("sim-fig7"), tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sameFig7 reports how two results of the same deterministic Fig7 call
// differ, if they do.
func sameFig7(a, b exp.ThroughputResult) error {
	if fmt.Sprint(a.MixIDs) != fmt.Sprint(b.MixIDs) {
		return fmt.Errorf("mixes %v vs %v", a.MixIDs, b.MixIDs)
	}
	for i := range a.BaselineThroughput {
		if a.BaselineThroughput[i] != b.BaselineThroughput[i] {
			return fmt.Errorf("baseline throughput of %s: %v vs %v", a.MixIDs[i], a.BaselineThroughput[i], b.BaselineThroughput[i])
		}
	}
	for c := range a.Curves {
		for i := range a.Curves[c].PerMix {
			if a.Curves[c].PerMix[i] != b.Curves[c].PerMix[i] {
				return fmt.Errorf("%s on %s: %v vs %v", a.Curves[c].Scheme, a.MixIDs[i], a.Curves[c].PerMix[i], b.Curves[c].PerMix[i])
			}
		}
	}
	return nil
}

// recomputeMix runs the baseline and every scheme of Fig7 on one mix,
// sequentially, through Record, RecordMisses and RunMixMiss.
func recomputeMix(m exp.Machine, mix workload.Mix) []sim.Result {
	schemes := fig7Schemes()
	sets := exp.MissSets(m.RecordMisses(m.Record(mix)), len(schemes))
	out := make([]sim.Result, len(schemes))
	for k, sch := range schemes {
		out[k] = m.RunMixMiss(mix.ID, sets[k], sch)
	}
	return out
}

// friendlyHitRate is the L2 hit rate of the mix's cache-friendly cores.
func friendlyHitRate(mix workload.Mix, r sim.Result) (float64, error) {
	var acc, miss uint64
	for i, app := range mix.Apps {
		if app.Category() == workload.Friendly {
			acc += r.Cores[i].L2Accesses
			miss += r.Cores[i].L2Misses
		}
	}
	if acc == 0 {
		return 0, fmt.Errorf("mix %s has no L2 accesses from friendly cores", mix.ID)
	}
	return 1 - float64(miss)/float64(acc), nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// countingSource wraps the raw replay cursor an L1 filter reads from, and
// counts and times the references it hands over: the time the filter
// spends waiting for workload generation. Chunk reads carry a span each;
// the rare per-reference reads (past the recording budget) only add time.
type countingSource struct {
	src    *workload.ReplayApp
	refs   int64
	gen    time.Duration
	tr     *tracer
	parent int32
	req    int64
}

func (c *countingSource) Name() string                { return c.src.Name() }
func (c *countingSource) Category() workload.Category { return c.src.Category() }

func (c *countingSource) Next() (int, uint64) {
	t := time.Now()
	g, a := c.src.Next()
	c.gen += time.Since(t)
	c.refs++
	return g, a
}

func (c *countingSource) NextPacked() []uint64 {
	sp := c.tr.begin("workload.gen", c.parent, c.req)
	t := time.Now()
	r := c.src.NextPacked()
	c.gen += time.Since(t)
	c.tr.end(sp)
	c.refs += int64(len(r))
	return r
}

// filterPipeline is exp.Machine.RecordMisses with each filter's raw source
// wrapped in a countingSource.
func filterPipeline(m exp.Machine, rec *workload.MixRecording, tr *tracer) ([]*sim.MissRecorder, []*countingSource) {
	recs := make([]*sim.MissRecorder, len(rec.Recs))
	srcs := make([]*countingSource, len(rec.Recs))
	for i, r := range rec.Recs {
		srcs[i] = &countingSource{src: r.ReplaySet(1)[0], tr: tr, parent: -1, req: int64(i)}
		recs[i] = sim.NewMissRecorder(srcs[i], m.L1Lines, m.L1Ways, sim.DefaultLatencies(), m.WarmupInstr, m.InstrLimit)
	}
	return recs, srcs
}

// recL2 records the L2 access stream and the target changes of the Vantage
// controller it wraps, for replay outside the simulator.
type recL2 struct {
	c     *core.Controller
	addrs []uint64
	parts []uint8
	marks []targetMark
}

// targetMark is a SetTargets call made before access number at.
type targetMark struct {
	at      int
	targets []int
}

func (r *recL2) Name() string       { return r.c.Name() }
func (r *recL2) Array() cache.Array { return r.c.Array() }
func (r *recL2) Size(part int) int  { return r.c.Size(part) }
func (r *recL2) NumPartitions() int { return r.c.NumPartitions() }
func (r *recL2) record(a uint64, p int) {
	r.addrs = append(r.addrs, a)
	r.parts = append(r.parts, uint8(p))
}

func (r *recL2) Access(addr uint64, part int) ctrl.AccessResult {
	r.record(addr, part)
	return r.c.Access(addr, part)
}

func (r *recL2) AccessMixed(addr, mixed uint64, part int) ctrl.AccessResult {
	r.record(addr, part)
	return r.c.AccessMixed(addr, mixed, part)
}

func (r *recL2) SetTargets(t []int) {
	r.marks = append(r.marks, targetMark{len(r.addrs), append([]int(nil), t...)})
	r.c.SetTargets(t)
}

// timedAlloc times each UCP allocation (UMON curves plus Lookahead).
type timedAlloc struct {
	p     *ucp.Policy
	calls int
	dur   time.Duration
}

func (a *timedAlloc) Access(part int, addr uint64)             { a.p.Access(part, addr) }
func (a *timedAlloc) AccessMixed(part int, addr, mixed uint64) { a.p.AccessMixed(part, addr, mixed) }
func (a *timedAlloc) Allocate(total int) []int {
	t := time.Now()
	out := a.p.Allocate(total)
	a.dur += time.Since(t)
	a.calls++
	return out
}

// simLayers decomposes one mix's recompute by layer. A first pass learns
// how many raw references each app's filter pulls; a second, fresh pass
// generates and filters exactly that much up front (workload and L1 filter
// spans), then replays the baseline and each scheme over the memoized
// stream (replay spans), and runs Vantage once more with its L2 access
// stream and UCP allocations recorded. The recorded stream is then replayed
// on a fresh controller with every access timed.
func simLayers(rep *report, m exp.Machine, mix workload.Mix, want []sim.Result, tr *tracer) error {
	schemes := fig7Schemes()

	// Pass 1: learn each filter's raw reference demand.
	mx, err := m.Mix(mix.ID)
	if err != nil {
		return err
	}
	recs, srcs := filterPipeline(m, m.Record(mx), &tracer{})
	sets := exp.MissSets(recs, len(schemes))
	for k, sch := range schemes {
		m.RunMixMiss(mix.ID, sets[k], sch)
	}
	need := make([]int64, len(srcs))
	for i, s := range srcs {
		need[i] = s.refs
	}

	// Pass 2: generate and filter first, then replay.
	mx, err = m.Mix(mix.ID)
	if err != nil {
		return err
	}
	sp := tr.begin("workload.record", -1, 0)
	t0 := time.Now()
	rec := m.Record(mx)
	recordCall := time.Since(t0)
	tr.end(sp)
	recs, srcs = filterPipeline(m, rec, tr)
	sets = exp.MissSets(recs, len(schemes)+2) // + instrumented Vantage run + drain cursor
	drain := sets[len(sets)-1]
	for i, s := range srcs {
		sp := tr.begin("sim.l1_filter", -1, int64(i))
		s.parent = sp
		for s.refs <= need[i] {
			drain[i].NextChunk()
		}
		tr.end(sp)
	}
	var refs int64
	var gen time.Duration
	for _, s := range srcs {
		refs += s.refs
		gen += s.gen
	}
	for k, sch := range schemes {
		sp := tr.begin("sim.replay."+schemeKeys[k], -1, int64(k))
		r := m.RunMixMiss(mix.ID, sets[k], sch)
		tr.end(sp)
		if r.Throughput != want[k].Throughput {
			rep.fail("mix %s: layer pass %s throughput %v, recompute %v", mix.ID, sch.Name, r.Throughput, want[k].Throughput)
		}
		rep.layer("sim.replay_s."+schemeKeys[k], tr.spans[sp].dur().Seconds())
	}

	// The instrumented Vantage run: exp's run configuration, rebuilt here so
	// the L2 and the allocator can be wrapped.
	vsch := schemes[1]
	seed := uint64(len(mix.ID))*1337 + m.Seed
	vc, ok := vsch.Build(m, seed).(*core.Controller)
	if !ok {
		return fmt.Errorf("%s does not build a *core.Controller", vsch.Name)
	}
	l2 := &recL2{c: vc}
	alloc := &timedAlloc{p: ucp.NewPolicy(m.Cores, m.BaselineWays, m.L2Lines, vsch.Granularity, m.Seed^0xa110c)}
	vr := sim.Run(sim.Config{
		L2:                 l2,
		L1Lines:            m.L1Lines,
		L1Ways:             m.L1Ways,
		InstrLimit:         m.InstrLimit,
		WarmupInstr:        m.WarmupInstr,
		Alloc:              alloc,
		RepartitionCycles:  m.RepartitionCycles,
		PartitionableLines: vsch.PartitionableLines(m.L2Lines),
		Contention:         m.Contention,
		Miss:               sets[len(schemes)],
	})
	if vr.Throughput != want[1].Throughput {
		rep.fail("mix %s: instrumented Vantage run throughput %v, recompute %v", mix.ID, vr.Throughput, want[1].Throughput)
	}
	var after int64
	for _, s := range srcs {
		after += s.refs
	}
	if after != refs {
		return fmt.Errorf("replays pulled %d raw references past the pre-filtered stream", after-refs)
	}

	// Replay the recorded L2 stream on a fresh controller, timing each access.
	rc, _ := vsch.Build(m, seed).(*core.Controller)
	over := timerOverhead()
	var hitT, missT time.Duration
	var hits, misses int
	mk := 0
	for i, a := range l2.addrs {
		for mk < len(l2.marks) && l2.marks[mk].at == i {
			rc.SetTargets(l2.marks[mk].targets)
			mk++
		}
		mixed := hash.Mix64(a)
		t := time.Now()
		r := rc.AccessMixed(a, mixed, int(l2.parts[i]))
		d := time.Since(t) - over
		if r.Hit {
			hitT += d
			hits++
		} else {
			missT += d
			misses++
		}
	}
	if rc.Counters() != vc.Counters() {
		rep.fail("mix %s: replayed controller counters %+v, simulated %+v", mix.ID, rc.Counters(), vc.Counters())
	}
	cnt := rc.Counters()

	rep.layer("workload.record_s", (recordCall + gen).Seconds())
	rep.layer("workload.refs", float64(refs))
	rep.layer("sim.l1_filter_s", tr.selfTime("sim.l1_filter").Seconds())
	// Every L2 access of the Vantage run, warm-up included (the cores'
	// L2Accesses count only the measured window).
	rep.layer("sim.l2_accesses", float64(len(l2.addrs)))
	rep.layer("core.hit_ns", ratio(float64(hitT), float64(hits)))
	rep.layer("core.replace_ns", ratio(float64(missT), float64(misses)))
	rep.layer("core.demotions_per_miss", ratio(float64(cnt.Demotions), float64(cnt.Misses)))
	rep.layer("core.forced_evict_frac", ratio(float64(cnt.ForcedManagedEvictions), float64(cnt.Evictions)))
	rep.layer("ucp.repartitions", float64(alloc.calls))
	rep.layer("ucp.lookahead_us", ratio(float64(alloc.dur)/1e3, float64(alloc.calls)))
	return nil
}
