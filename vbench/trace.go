package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// procStart is the earliest instant the benchmark's own code can observe:
// package variables initialise before main runs, right after the Go runtime
// starts. setup_s is measured from here.
var procStart = time.Now()

func sinceStart() time.Duration { return time.Since(procStart) }

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Start and End are nanoseconds since procStart;
// Parent indexes the enclosing span in the same tracer (-1 for a root);
// spans of one request (a batch, a mix) share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; they are written out once, at exit. A
// disabled tracer records nothing and costs one branch per call. A tracer
// belongs to one goroutine.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(sinceStart()), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(sinceStart())
	}
}

// selfTime is the summed duration of the spans named name minus the part of
// each covered by its direct children.
func (t *tracer) selfTime(name string) time.Duration {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var d int64
	for i, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start - child[int32(i)]
		}
	}
	return time.Duration(d)
}

// writeSpans writes the spans of every tracer as JSON lines to path. Span
// parents index into their own tracer, so each tracer's spans carry a
// distinct "tracer" number.
func writeSpans(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		for _, s := range t.spans {
			rec := struct {
				Tracer int `json:"tracer"`
				span
			}{ti, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timerOverhead is the median cost of an empty `t := time.Now();
// time.Since(t)` pair. Per-call timings of calls too short to carry a span
// each (one simulated L2 access, one in-process GET) subtract it.
func timerOverhead() time.Duration {
	const n = 20001
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, the spread rule the bounds are set against.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func must(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", what, err)
		os.Exit(1)
	}
}
