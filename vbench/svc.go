package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/hash"
	"vantage/internal/service"
	"vantage/internal/service/loadgen"
	"vantage/internal/workload"
)

// The service workloads. Two tenants, one connection each, run closed
// loops of text MGETs of batchKeys keys; every miss is filled with a
// pipelined PUT of the key-derived value, so reads run beside writes. The
// friendly tenant draws keys from a Zipf(0.5) working set twice the cache's
// capacity (loadgen.CategoryApp's Table 3 friendly model); the stream
// tenant scans 64 capacities of never-reused keys. The friendly tenant's
// hit rate therefore holds only while Vantage keeps the stream tenant out
// of its partition.
//
// UCP repartitions every repartEvery batches (both connections together),
// driven by operation count rather than a timer, so hit rates do not move
// with the host's speed.
const (
	valueLen     = 64
	batchKeys    = 32
	maxWarm      = 8000 // per connection: warm-up that has not settled by then fails the run
	roundBatches = 500  // per connection: one round of run_s
	repartEvery  = 256
	probeBatches = 1000 // traced cluster runs: proxied vs direct BMGET comparisons

	nodeShards        = 4
	soloLinesPerShard = 8192 // svc-isolation: 32768 lines
	clusterNodes      = 3
	nodeLinesPerShard = 4096 // cluster-proxy: 3 x 16384 = 49152 lines

	friendlyAlpha = 0.5 // loadgen.CategoryApp's friendly Zipf exponent
)

var tenantNames = [2]string{"friendly", "stream"}

// svcEnv is the in-process deployment under test.
type svcEnv struct {
	nodes   []*service.Service
	servers []*service.Server
	addrs   []string
	proxy   *cluster.Proxy
	ring    *cluster.Ring
	addr    string // where clients connect
	lines   int    // total capacity in lines
}

func nodeConfig(seed uint64, i int, clustered bool) service.Config {
	lps := soloLinesPerShard
	if clustered {
		lps = nodeLinesPerShard
	}
	return service.Config{Shards: nodeShards, LinesPerShard: lps, Seed: seed + uint64(i)}
}

func startEnv(seed uint64, clustered bool) (*svcEnv, error) {
	e := &svcEnv{}
	n := 1
	if clustered {
		n = clusterNodes
	}
	liss := make([]net.Listener, n)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		liss[i] = lis
		e.addrs = append(e.addrs, lis.Addr().String())
	}
	for i := 0; i < n; i++ {
		svc, err := service.New(nodeConfig(seed, i, clustered))
		if err != nil {
			liss[i].Close()
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, svc)
		e.servers = append(e.servers, service.Serve(svc, liss[i]))
		e.lines += svc.TotalLines()
		if clustered {
			nd, err := cluster.NewNode(svc, e.addrs[i], e.addrs, cluster.DefaultVNodes)
			if err != nil {
				e.close()
				return nil, err
			}
			svc.SetClusterHandler(nd)
		}
	}
	e.addr = e.addrs[0]
	if clustered {
		ring, err := cluster.NewRing(e.addrs, cluster.DefaultVNodes)
		if err != nil {
			e.close()
			return nil, err
		}
		e.ring = ring
		plis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		p, err := cluster.NewProxy(plis, e.addrs, cluster.DefaultVNodes)
		if err != nil {
			plis.Close()
			e.close()
			return nil, err
		}
		e.proxy = p
		e.addr = p.Addr().String()
	}
	return e, nil
}

func (e *svcEnv) close() {
	if e.proxy != nil {
		e.proxy.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
}

func (e *svcEnv) repartition() {
	for _, n := range e.nodes {
		n.Repartition()
	}
}

func (e *svcEnv) tenantStats(name string) ([]service.TenantStats, error) {
	out := make([]service.TenantStats, len(e.nodes))
	for i, n := range e.nodes {
		ts, err := n.TenantStats(name)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		out[i] = ts
	}
	return out, nil
}

// tenantApp is tenant t's key stream, scaled to capacity lines.
func tenantApp(t int, lines int, seed uint64) workload.App {
	if t == 0 {
		return loadgen.CategoryApp(workload.Friendly, lines, hash.Mix64(seed^0xf1))
	}
	return loadgen.CategoryApp(workload.Thrashing, lines, hash.Mix64(seed^0x5e))
}

// textClient is the benchmark's own client for vantaged's text protocol. It
// times every batch and checks every value it reads back.
type textClient struct {
	tenant  string
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	app     workload.App
	keys    []string
	missed  []string
	val     []byte
	scratch []byte
	buf     []byte

	counts     clientCounts // every operation, for the server cross-check
	mismatches int
	firstBad   string
}

func dialText(addr, tenant string, app workload.App) (*textClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &textClient{
		tenant: tenant, conn: conn, app: app,
		r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10),
		val: make([]byte, 0, valueLen), scratch: make([]byte, 0, valueLen),
	}, nil
}

func (c *textClient) readLine() (string, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	n := len(b) - 1
	if n > 0 && b[n-1] == '\r' {
		n--
	}
	return string(b[:n]), nil
}

func (c *textClient) roundTrip(line string) (string, error) {
	c.w.WriteString(line)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLine()
}

func (c *textClient) nextKeys() {
	c.keys = c.keys[:0]
	for i := 0; i < batchKeys; i++ {
		_, a := c.app.Next()
		c.keys = append(c.keys, strconv.FormatUint(a, 16))
	}
}

// mget reads c.keys in one MGET, checks every returned value, and leaves
// the missed keys in c.missed. It returns the hit count.
func (c *textClient) mget() (int, error) {
	c.w.WriteString("MGET ")
	c.w.WriteString(c.tenant)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(c.keys)))
	for _, k := range c.keys {
		c.w.WriteByte(' ')
		c.w.WriteString(k)
	}
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	c.missed = c.missed[:0]
	hits := 0
	for _, k := range c.keys {
		line, err := c.readLine()
		if err != nil {
			return hits, err
		}
		switch {
		case line == "MISS":
			c.missed = append(c.missed, k)
		case len(line) > 6 && line[:6] == "VALUE ":
			n, err := strconv.Atoi(line[6:])
			if err != nil || n < 0 || n > 1<<20 {
				return hits, fmt.Errorf("MGET %s: bad header %q", c.tenant, line)
			}
			if cap(c.buf) < n+2 {
				c.buf = make([]byte, n+2)
			}
			b := c.buf[:n+2]
			if _, err := io.ReadFull(c.r, b); err != nil {
				return hits, err
			}
			if !checkValue(c.scratch, b[:n], c.tenant, k) {
				if c.mismatches == 0 {
					c.firstBad = fmt.Sprintf("%s/%s returned %q", c.tenant, k, b[:n])
				}
				c.mismatches++
			}
			hits++
		default:
			return hits, fmt.Errorf("MGET %s: unexpected reply %q", c.tenant, line)
		}
	}
	line, err := c.readLine()
	if err != nil {
		return hits, err
	}
	if line != "END" {
		return hits, fmt.Errorf("MGET %s: want END, got %q", c.tenant, line)
	}
	c.counts.Gets += uint64(len(c.keys))
	c.counts.Hits += uint64(hits)
	return hits, nil
}

// fill PUTs every missed key's value in one pipelined write.
func (c *textClient) fill() error {
	if len(c.missed) == 0 {
		return nil
	}
	for _, k := range c.missed {
		c.val = valueFor(c.val, c.tenant, k)
		c.w.WriteString("PUT ")
		c.w.WriteString(c.tenant)
		c.w.WriteByte(' ')
		c.w.WriteString(k)
		c.w.WriteString(" " + strconv.Itoa(valueLen) + "\r\n")
		c.w.Write(c.val)
		c.w.WriteString("\r\n")
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	for range c.missed {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if line != "STORED" {
			return fmt.Errorf("PUT %s: %q", c.tenant, line)
		}
		c.counts.Puts++
	}
	return nil
}

// loopStats is one connection's measured window.
type loopStats struct {
	lat        []float64 // batch round trips, µs
	rounds     []float64 // seconds per round of roundBatches
	rates      []float64 // operations per second in each round
	gets, hits uint64
	ops        int64 // GET keys + fill PUTs
	batches    int64
	repart     []float64 // µs per repartition this connection triggered
}

// driver runs the two connections and the operation-count repartitioner.
// During warm-up, each repartition also asks whether the cache has settled;
// once it has, warm is set and both connections leave warm-up.
type driver struct {
	env     *svcEnv
	batches atomic.Int64
	warm    atomic.Bool

	mu     sync.Mutex
	target int       // the friendly tenant's target at the previous warm-up repartition
	occ    []float64 // the friendly tenant's occupancy after each measured repartition
}

func (d *driver) batch(c *textClient, tr *tracer, req int64, st *loopStats) error {
	c.nextKeys()
	sp := tr.begin("batch", -1, req)
	t0 := time.Now()
	msp := tr.begin("mget", sp, req)
	hits, err := c.mget()
	tr.end(msp)
	if err != nil {
		return err
	}
	fsp := tr.begin("fill", sp, req)
	err = c.fill()
	tr.end(fsp)
	dt := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	if st != nil {
		st.lat = append(st.lat, float64(dt)/1e3)
		st.gets += uint64(len(c.keys))
		st.hits += uint64(hits)
		st.ops += int64(len(c.keys) + len(c.missed))
		st.batches++
	}
	if d.batches.Add(1)%repartEvery == 0 {
		t := time.Now()
		d.env.repartition()
		if st != nil {
			st.repart = append(st.repart, float64(time.Since(t))/1e3)
			if err := d.sampleOccupancy(); err != nil {
				return err
			}
		} else if !d.warm.Load() {
			ok, err := d.settled()
			if err != nil {
				return err
			}
			d.warm.Store(ok)
		}
	}
	return nil
}

// sampleOccupancy records the friendly tenant's occupancy. The hit rate is
// measured over the whole window, so the Che check uses the mean of these
// samples. A snapshot taken once at the end fell about 1 100 lines (3.5%)
// below the usual level in 2 of 20 svc-isolation runs while the window's
// hit rate was the same as in the others.
func (d *driver) sampleOccupancy() error {
	ts, err := d.env.tenantStats(tenantNames[0])
	if err != nil {
		return err
	}
	occ := 0
	for _, n := range ts {
		occ += n.OccupancyLines
	}
	d.mu.Lock()
	d.occ = append(d.occ, float64(occ))
	d.mu.Unlock()
	return nil
}

// settled reports whether warm-up is done: the cache holds at least 90%
// of its managed lines (checkFilled), the friendly tenant's target moved by
// at most 1% since the previous repartition, and its occupancy has reached
// 98% of that target. Warm-up therefore ends on the state of the cache,
// not after a fixed number of batches, and set-up holds no more traffic
// than filling and converging need. The summed target of three nodes
// wobbles by about 1% from one repartition to the next, so it is not
// required to stand still.
func (d *driver) settled() (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if checkFilled(d.env) != nil {
		return false, nil
	}
	ts, err := d.env.tenantStats(tenantNames[0])
	if err != nil {
		return false, err
	}
	occ, target := 0, 0
	for _, n := range ts {
		occ += n.OccupancyLines
		target += n.TargetLines
	}
	prev := d.target
	d.target = target
	return math.Abs(float64(target-prev)) <= 0.01*float64(target) && float64(occ) >= 0.98*float64(target), nil
}

func runService(o options, clustered bool) (*report, error) {
	rep := newReport()
	name := "svc-isolation"
	if clustered {
		name = "cluster-proxy"
	}
	env, err := startEnv(o.seed, clustered)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var clients [2]*textClient
	for t := range clients {
		c, err := dialText(env.addr, tenantNames[t], tenantApp(t, env.lines, o.seed))
		if err != nil {
			return nil, err
		}
		defer c.conn.Close()
		clients[t] = c
	}
	// TENANT ADD through the front; in the cluster the node it lands on
	// replicates it to its peers before answering.
	t0 := time.Now()
	for t, c := range clients {
		resp, err := c.roundTrip("TENANT ADD " + tenantNames[t])
		if err != nil {
			return nil, err
		}
		if len(resp) < 3 || resp[:3] != "OK " {
			return nil, fmt.Errorf("TENANT ADD %s: %q", tenantNames[t], resp)
		}
	}
	tenantAdd := time.Since(t0)
	for i, n := range env.nodes {
		if got := len(n.TenantNames()); got != len(tenantNames) {
			return nil, fmt.Errorf("node %d knows %d tenants after TENANT ADD, want %d", i, got, len(tenantNames))
		}
	}

	d := &driver{env: env}
	trs := [2]*tracer{{on: o.trace}, {on: o.trace}}
	var sts [2]loopStats
	var errs [2]error
	var framesBefore uint64
	var measureStart time.Time
	var wg sync.WaitGroup
	var warm sync.WaitGroup
	startGate := make(chan struct{})
	warm.Add(2)
	for t := range clients {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c, tr, st := clients[t], trs[t], &sts[t]
			var err error
			for b := 0; !d.warm.Load() && err == nil; b++ {
				if b == maxWarm {
					err = fmt.Errorf("warm-up did not settle in %d batches per connection", maxWarm)
					break
				}
				err = d.batch(c, &tracer{}, 0, nil)
			}
			warm.Done()
			if err != nil {
				errs[t] = err
				return
			}
			<-startGate
			req := int64(0)
			for {
				r0, ops0 := time.Now(), st.ops
				for b := 0; b < roundBatches; b++ {
					if err := d.batch(c, tr, req, st); err != nil {
						errs[t] = err
						return
					}
					req++
				}
				sec := time.Since(r0).Seconds()
				st.rounds = append(st.rounds, sec)
				st.rates = append(st.rates, float64(st.ops-ops0)/sec)
				if time.Since(measureStart) >= o.dur {
					return
				}
			}
		}(t)
	}
	warm.Wait()
	if errs[0] == nil && errs[1] == nil {
		if err := checkFilled(env); err != nil {
			errs[0] = err
		}
	}
	if env.proxy != nil {
		framesBefore = env.proxy.Stats().PipelinedFrames
	}
	warmed := int(d.batches.Load()) / len(clients)
	fmt.Fprintf(os.Stderr, "vbench: %s warm-up settled after %d batches per connection\n", name, warmed)
	rep.e2e("setup_s", sinceStart().Seconds())
	measureStart = time.Now()
	close(startGate)
	wg.Wait()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		return nil, err
	}

	// Checks: values, client/server counts, accounting identity, Che.
	for _, c := range clients {
		if c.mismatches > 0 {
			rep.fail("%d hits returned a value other than the one stored; first: %s", c.mismatches, c.firstBad)
		}
	}
	var stats [2][]service.TenantStats
	for t, c := range clients {
		ts, err := env.tenantStats(tenantNames[t])
		if err != nil {
			return nil, err
		}
		stats[t] = ts
		for _, e := range checkCounts(tenantNames[t], c.counts, ts) {
			rep.fail("%s", e)
		}
	}
	last := 0
	for _, ts := range stats[0] {
		last += ts.OccupancyLines
	}
	if len(d.occ) == 0 {
		return nil, errors.New("no repartition in the measured window")
	}
	occ := mean(d.occ)
	fs := sts[0]
	hit := ratio(float64(fs.hits), float64(fs.gets))
	probs := zipfProbs(2*env.lines, friendlyAlpha)
	est := cheHitRate(probs, occ, 0)
	for _, e := range checkChe(hit, est) {
		rep.fail("%s", e)
	}
	shared := cheHitRate(probs, float64(env.lines), ratio(float64(sts[1].gets), float64(fs.gets)))
	fmt.Fprintf(os.Stderr, "vbench: %s friendly hit rate %.4f, Che at %.0f lines (mean of %d samples, min %.0f, %d at the end) %.4f, shared-LRU estimate %.4f\n",
		name, hit, occ, len(d.occ), slices.Min(d.occ), last, est, shared)
	for t, st := range sts {
		l := append([]float64(nil), st.lat...)
		sort.Float64s(l)
		fmt.Fprintf(os.Stderr, "vbench: %s %s batches %d p50 %.1f p90 %.1f us, rounds median %.4f s\n", name, tenantNames[t], st.batches, quantile(l, 0.5), quantile(l, 0.9), median(st.rounds))
	}

	// Times are medians over rounds, and throughput is each connection's
	// median per-round rate, summed: a median shrugs off the host's passing
	// stalls, which a mean over the run carries (README.md).
	var lat, rounds, repart []float64
	var ops, batches int64
	var rate float64
	for _, st := range sts {
		lat = append(lat, st.lat...)
		rounds = append(rounds, st.rounds...)
		repart = append(repart, st.repart...)
		ops += st.ops
		batches += st.batches
		rate += median(st.rates)
	}
	sort.Float64s(lat)
	rep.attempted = ops
	rep.e2e("run_s", median(rounds))
	rep.e2e("vantage_gmean", ratio(hit, shared))
	rep.e2e("ops_per_s", rate)
	rep.e2e("batch_p50_us", quantile(lat, 0.5))
	rep.e2e("hit_rate_friendly", hit)

	if !o.trace {
		return rep, nil
	}
	rep.layer("trace.run_s", median(rounds))
	rep.layer("wire.batch_p90_us", quantile(lat, 0.9))
	rep.layer("wire.batch_p99_us", quantile(lat, 0.99))
	rep.layer("service.repartition_us", median(repart))
	var forced, puts uint64
	for _, ts := range stats {
		for _, n := range ts {
			forced += n.ForcedEvictions
			puts += n.Puts
		}
	}
	rep.layer("service.forced_evict_frac", ratio(float64(forced), float64(puts)))
	rep.layer("service.friendly_occupancy_lines", occ)
	if env.proxy != nil {
		ps := env.proxy.Stats()
		rep.layer("cluster.frames_per_batch", ratio(float64(ps.PipelinedFrames-framesBefore), float64(batches)))
		rep.layer("cluster.pool_conns", float64(ps.PoolConns))
		rep.layer("cluster.tenant_add_ms", float64(tenantAdd)/1e6/float64(len(tenantNames)))
		if err := probeDirect(rep, env, clients[0]); err != nil {
			return nil, err
		}
	}
	svcBatch, err := serviceLayers(rep, o.seed, clustered, env.lines, warmed)
	if err != nil {
		return nil, err
	}
	rep.layer("wire.self_us_per_batch", quantile(lat, 0.5)-svcBatch)
	if err := writeSpans(o.tracePath(name), trs[0], trs[1]); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkFilled fails when warm-up left the cache short of capacity: the
// measured window must see a full cache, evictions included.
func checkFilled(env *svcEnv) error {
	occ, managed := 0, 0
	for _, n := range env.nodes {
		for _, name := range tenantNames {
			ts, err := n.TenantStats(name)
			if err != nil {
				return err
			}
			occ += ts.OccupancyLines
		}
		managed += n.TotalLines() - int(0.05*float64(n.TotalLines()))
	}
	if float64(occ) < 0.9*float64(managed) {
		return fmt.Errorf("warm-up filled %d of %d managed lines", occ, managed)
	}
	return nil
}

// probeDirect compares, batch by batch, a proxied MGET with the same keys
// sent straight to their owners as BMGET frames (one Peer per node, used
// one at a time). It runs after the checks; its reads are not counted.
func probeDirect(rep *report, env *svcEnv, c *textClient) error {
	peers := make(map[string]*cluster.Peer, len(env.addrs))
	for _, a := range env.addrs {
		p := cluster.NewPeer(a)
		defer p.Close()
		peers[a] = p
	}
	var proxied, direct, slowest []float64
	byOwner := make(map[string][]string, len(env.addrs))
	for b := 0; b < probeBatches; b++ {
		c.nextKeys()
		t0 := time.Now()
		if _, err := c.mget(); err != nil {
			return err
		}
		proxied = append(proxied, float64(time.Since(t0))/1e3)
		for a := range byOwner {
			byOwner[a] = byOwner[a][:0]
		}
		for _, k := range c.keys {
			a := env.ring.Owner(c.tenant, k)
			byOwner[a] = append(byOwner[a], k)
		}
		slow := 0.0
		for a, keys := range byOwner {
			if len(keys) == 0 {
				continue
			}
			t := time.Now()
			ents, err := peers[a].BMGet(c.tenant, keys)
			d := float64(time.Since(t)) / 1e3
			if err != nil {
				return err
			}
			for i, e := range ents {
				if e.Hit && !checkValue(c.scratch, e.Val, c.tenant, keys[i]) {
					rep.fail("direct BMGET of %s/%s returned %q", c.tenant, keys[i], e.Val)
				}
			}
			direct = append(direct, d)
			if d > slow {
				slow = d
			}
		}
		slowest = append(slowest, slow)
	}
	sort.Float64s(proxied)
	sort.Float64s(direct)
	sort.Float64s(slowest)
	rep.layer("cluster.direct_bmget_p50_us", quantile(direct, 0.5))
	rep.layer("cluster.proxy_self_us", quantile(proxied, 0.5)-quantile(slowest, 0.5))
	return nil
}

// serviceLayers replays both tenants' key streams against fresh in-process
// services configured like the live ones, through GetB and PutB with every
// call timed, batch by batch in alternation, repartitioning on the same
// operation count. The first warmed batches per tenant, as many as the live
// warm-up ran, are not timed. In the cluster each key goes to its ring
// owner's service. It returns the median service time of one batch in µs.
func serviceLayers(rep *report, seed uint64, clustered bool, lines, warmed int) (float64, error) {
	n := 1
	if clustered {
		n = clusterNodes
	}
	byAddr := make(map[string]*service.Service, n)
	defer func() {
		for _, s := range byAddr {
			s.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := service.New(nodeConfig(seed, i, clustered))
		if err != nil {
			return 0, err
		}
		a := fmt.Sprintf("node%d", i)
		byAddr[a] = s
		addrs = append(addrs, a)
		for _, name := range tenantNames {
			if _, err := s.AddTenant(name); err != nil {
				return 0, err
			}
		}
	}
	var ring *cluster.Ring
	if clustered {
		r, err := cluster.NewRing(addrs, cluster.DefaultVNodes)
		if err != nil {
			return 0, err
		}
		ring = r
	}
	owner := func(tenant, key string) *service.Service {
		if ring == nil {
			return byAddr[addrs[0]]
		}
		return byAddr[ring.Owner(tenant, key)]
	}

	over := timerOverhead()
	apps := [2]workload.App{tenantApp(0, lines, seed), tenantApp(1, lines, seed)}
	var tb [2][]byte
	for t := range tb {
		tb[t] = []byte(tenantNames[t])
	}
	keys := make([]string, batchKeys)
	var kb []byte
	val := make([]byte, 0, valueLen)
	var hitT, missT, putT time.Duration
	var hitN, missN, putN int
	var batchUS []float64
	var ownerKeys []string
	total := 0
	for b := 0; b < warmed+2*roundBatches; b++ {
		timed := b >= warmed
		if b == warmed {
			hitT, missT, putT, hitN, missN, putN = 0, 0, 0, 0, 0, 0
		}
		for t := range apps {
			var svcT time.Duration
			for i := range keys {
				_, a := apps[t].Next()
				keys[i] = strconv.FormatUint(a, 16)
			}
			for _, k := range keys {
				s := owner(tenantNames[t], k)
				if timed && ring != nil && len(ownerKeys) < 100000 {
					ownerKeys = append(ownerKeys, k)
				}
				kb = append(kb[:0], k...)
				t0 := time.Now()
				v, hit, err := s.GetB(tb[t], kb)
				d := time.Since(t0) - over
				if err != nil {
					return 0, err
				}
				if hit {
					if !checkValue(val, v, tenantNames[t], k) {
						rep.fail("in-process GET %s/%s returned %q", tenantNames[t], k, v)
					}
					hitT += d
					hitN++
				} else {
					val = valueFor(val, tenantNames[t], k)
					t1 := time.Now()
					err := s.PutB(tb[t], kb, val)
					dp := time.Since(t1) - over
					if err != nil {
						return 0, err
					}
					missT += d
					missN++
					putT += dp
					putN++
					d += dp
				}
				svcT += d
			}
			if timed {
				batchUS = append(batchUS, float64(svcT)/1e3)
			}
			total++
			if total%repartEvery == 0 {
				for _, a := range addrs {
					byAddr[a].Repartition()
				}
			}
		}
	}
	rep.layer("service.get_hit_ns", ratio(float64(hitT), float64(hitN)))
	rep.layer("service.get_miss_ns", ratio(float64(missT), float64(missN)))
	rep.layer("service.put_fill_ns", ratio(float64(putT), float64(putN)))
	if ring != nil {
		t0 := time.Now()
		var sink int
		for _, k := range ownerKeys {
			sink += len(ring.Owner(tenantNames[0], k))
		}
		d := time.Since(t0)
		if sink == 0 {
			return 0, errors.New("ring owner probe ran on no keys")
		}
		rep.layer("cluster.ring_owner_ns", float64(d)/float64(len(ownerKeys)))
	}
	return median(batchUS), nil
}
