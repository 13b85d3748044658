package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/kernel"
	"caltrain/internal/obs"
	"caltrain/internal/serve"
)

// investigateSize fixes the investigate workload's inputs and load.
type investigateSize struct {
	perLabel int     // linkages in each of the two labels
	rate     float64 // open-loop arrival rate, requests/s
	sample   int     // served queries checked against the exact oracle
}

// investigateFull is the benchmark's investigate workload: 100,000
// linkages in two labels behind one IVFPQ daemon, queried at a fixed
// rate of about a quarter of a 2-core host's capacity (README.md says
// why not more).
var investigateFull = investigateSize{perLabel: 50000, rate: 500, sample: 400}

const (
	queryK = 10
	// minRecall fails a run whose served answers silently lost
	// accuracy. Default-option IVFPQ measures 0.91–0.92 on this data
	// across seeds; the bar leaves room for seed-to-seed variation.
	minRecall = 0.85
)

// queryGen hands out fresh, never-repeated members of existing groups
// in a fixed order.
type queryGen struct {
	mu  sync.Mutex
	rng *rand.Rand
	gs  *groupSet
}

func (g *queryGen) next() fingerprint.Linkage {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gs.fresh(g.rng, g.rng.IntN(g.gs.labels))
}

// served is one answered query kept for the recall check.
type served struct {
	f       fingerprint.Fingerprint
	label   int
	indices []int
}

func runInvestigate(e *env, sz investigateSize) (*report, error) {
	rep := newReport()
	db, gs, err := linkageDB(rand.New(rand.NewPCG(e.seed, 1)), 2, sz.perLabel)
	if err != nil {
		return nil, err
	}

	spec := &timedSpec{BackendSpec: serve.IVFPQSpec{}}
	t0 := time.Now()
	srv, err := serve.Deployment{Backend: spec, Observability: observability(false)}.Build(db)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	buildTime := time.Since(t0)
	daemon, err := start(srv)
	if err != nil {
		return nil, err
	}
	defer daemon.stop()
	if err := healthy(daemon.url); err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	searcher := srv.Service().Searcher()

	gen := &queryGen{rng: rand.New(rand.NewPCG(e.seed, 2)), gs: gs}
	total := time.Duration(e.seconds * float64(time.Second))
	if !e.traced {
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("heap_mb", heapMB(), "MiB")
		p, kept, err := investigatePhases(e, daemon.url, gen, sz, total, false)
		if err != nil {
			return nil, err
		}
		rep.set("latency_p50_ms", p.latency(0.5), "ms")
		rep.set("latency_p90_ms", p.latency(0.9), "ms")
		rep.set("throughput_per_s", p.capacity(), "1/s")
		rep.set("read_p50_ms", p.latency(0.5), "ms")
		rep.set("read_p90_ms", p.latency(0.9), "ms")
		rep.set("capacity_ops_per_s", p.capacity(), "ops/s")
		rep.set("open_loop_requests", float64(len(pool(p.open))), "count")
		rep.set("quiet_round_share", p.quietShare(), "ratio")
		recordPhases(rep, p)
		return rep, checkRecall(rep, db, kept)
	}

	// Traced run: the untraced daemon and a traced one serving the same
	// trained index take turns, each for half the time.
	tsrv, err := serve.Deployment{Backend: serve.PrebuiltSpec{Searcher: searcher}, Observability: observability(true)}.Build(db)
	if err != nil {
		return nil, err
	}
	traced, err := start(tsrv)
	if err != nil {
		return nil, err
	}
	defer traced.stop()
	var kept []served
	up, tp, err := takeTurns(total, func(d time.Duration, tr bool) (phases, error) {
		if !tr {
			p, _, err := investigatePhases(e, daemon.url, gen, sz, d, false)
			return p, err
		}
		p, k, err := investigatePhases(e, traced.url, gen, sz, d, true)
		kept = append(kept, k...)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	recordPhases(rep, up)
	recordPhases(rep, tp)
	js, missing := joinTraces(tp.all(), []*obs.TraceStore{tsrv.TraceStore()})
	if missing > 0 {
		rep.fail(0, "%d client spans have no server trace", missing)
	}
	layerStats(rep, js, 0)
	clientStats(rep, tp)
	traceOverhead(rep, up.capacity(), tp.capacity())
	rep.set("index.train_s", spec.elapsed().Seconds(), "s")
	rep.set("serve.build_s", buildTime.Seconds(), "s")
	rep.set("index.bytes_per_entry", bytesPerEntry(searcher), "B")
	kernelStats(rep, db)
	return rep, checkRecall(rep, db, kept)
}

// investigatePhases warms the daemon up, then runs the measured phases
// with fresh queries, keeping every sixteenth answer for the recall
// check.
func investigatePhases(e *env, url string, gen *queryGen, sz investigateSize, total time.Duration, traced bool) (phases, []served, error) {
	cs, closeClients := clients(url)
	defer closeClients()
	var mu sync.Mutex
	var kept []served
	n := 0
	issue := func(ctx context.Context, w int) (string, error) {
		l := gen.next()
		resp, err := cs[w].QueryCtx(ctx, l.F, l.Y, queryK)
		if err != nil {
			return "query", err
		}
		idx := make([]int, len(resp.Matches))
		for i, m := range resp.Matches {
			if m.Label != l.Y {
				return "query", fmt.Errorf("match of label %d answered a query of label %d", m.Label, l.Y)
			}
			idx[i] = m.Index
		}
		if len(idx) != queryK {
			return "query", fmt.Errorf("%d matches, want %d", len(idx), queryK)
		}
		mu.Lock()
		if n%16 == 0 && len(kept) < sz.sample {
			kept = append(kept, served{f: l.F, label: l.Y, indices: idx})
		}
		n++
		mu.Unlock()
		return "query", nil
	}
	if err := warmUp(cs, func() fingerprint.QueryRequest {
		l := gen.next()
		return fingerprint.QueryRequest{Fingerprint: l.F, Label: l.Y, K: queryK}
	}); err != nil {
		return phases{}, nil, err
	}
	p := runPhases(context.Background(), e.seed, sz.rate, total, issue, traced)
	return p, kept, nil
}

// checkRecall compares the kept answers with the exact Flat top-k over
// the same database.
func checkRecall(rep *report, db *fingerprint.DB, kept []served) error {
	if len(kept) == 0 {
		return errors.New("no answered query was kept for the recall check")
	}
	flat := index.NewFlat(db)
	var sum float64
	for _, s := range kept {
		want, err := flat.Search(s.f, s.label, queryK)
		if err != nil {
			return err
		}
		in := make(map[int]bool, len(want))
		for _, m := range want {
			in[m.Index] = true
		}
		hit := 0
		for _, i := range s.indices {
			if in[i] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(want))
	}
	recall := sum / float64(len(kept))
	rep.set("recall_at_10", recall, "ratio")
	if recall < minRecall {
		rep.fail(len(kept), "recall@%d %.3f over %d queries is below %.2f", queryK, recall, len(kept), minRecall)
	}
	return nil
}

// kernelStats times the distance kernels on the workload's own vectors:
// DistanceRows over a label's float rows, and ADCScan over M=16 codes
// drawn from the same rows with a 16×256 table, the IVFPQ scan shape.
func kernelStats(rep *report, db *fingerprint.DB) {
	rows := db.ClassIndex(0)
	vecs := make([]float32, 0, len(rows)*dim)
	for _, i := range rows {
		vecs = append(vecs, db.Entry(i).F...)
	}
	q := db.Entry(db.ClassIndex(1)[0]).F
	out := make([]float64, len(rows))
	rep.set("kernel.distance_rows_ns_per_row",
		nsPerRow(len(rows), func() { kernel.DistanceRows(q, vecs, dim, out) }), "ns")

	const m, sub = 16, dim / 16
	table := make([]float32, m*kernel.ADCKs)
	for j := 0; j < m; j++ {
		for c := 0; c < kernel.ADCKs; c++ {
			cent := vecs[c*dim+j*sub : c*dim+(j+1)*sub]
			table[j*kernel.ADCKs+c] = float32(kernel.SqDist(q[j*sub:(j+1)*sub], cent))
		}
	}
	codes := make([]byte, len(rows)*m)
	for r := range rows {
		for j := 0; j < m; j++ {
			v := (vecs[r*dim+j*sub] + 1) * 127.5
			codes[r*m+j] = byte(min(max(v, 0), 255))
		}
	}
	rep.set("kernel.adc_scan_ns_per_row",
		nsPerRow(len(rows), func() { kernel.ADCScan(table, codes, m, out) }), "ns")
	rep.label("kernel.impl", kernel.Active())
}

// nsPerRow is the median over rounds of fn's time per row, each round
// running fn for about 50ms.
func nsPerRow(rows int, fn func()) float64 {
	var per []float64
	for round := 0; round < 5; round++ {
		t := time.Now()
		calls := 0
		for time.Since(t) < 50*time.Millisecond {
			fn()
			calls++
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(calls*rows))
	}
	return median(per)
}
