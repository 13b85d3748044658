package main

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
	"caltrain/internal/serve"
	"caltrain/internal/shard"
)

// triageSize fixes the triage workload's inputs and load.
type triageSize struct {
	labels   int
	perLabel int
	rate     float64 // open-loop arrival rate, requests/s
	setups   int     // topology builds whose median is setup_s
}

// triageFull is the benchmark's triage workload: 100,096 linkages over
// 256 labels behind a router over 2 shards × 2 replicas, each replica
// its own WAL-backed daemon, at a fixed rate of about a sixth of a
// 2-core host's capacity (README.md says why not more).
var triageFull = triageSize{labels: 256, perLabel: 391, rate: 100, setups: 5}

// The triage mix. Writes land only on the lower half of the labels, so
// reads on the upper half can be checked bit for bit against the
// generated database.
const (
	shards        = 2
	replicas      = 2
	cacheEntries  = 1024
	replayWindow  = 100
	batchQueries  = 16
	ingestEntries = 32
	readbackBatch = 64
)

// triageGen hands out the triage mix in a fixed order: 70% single
// queries (half of them replaying one of the last ~100 fingerprints, as
// investigators re-run a misprediction), 10% batches of 16 queries
// across labels, and 20% ingest batches of 32 new linkages.
type triageGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	gs       *groupSet
	recent   []fingerprint.Linkage
	nextHash uint64
}

type triageReq struct {
	kind    string
	queries []fingerprint.QueryRequest
	entries []fingerprint.IngestEntry
}

func (g *triageGen) writeLabels() int { return g.gs.labels / 2 }

func (g *triageGen) query() fingerprint.QueryRequest {
	l := g.gs.fresh(g.rng, g.rng.IntN(g.gs.labels))
	return fingerprint.QueryRequest{Fingerprint: l.F, Label: l.Y, K: queryK}
}

func (g *triageGen) next() triageReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.rng.Float64()
	switch {
	case u < 0.70:
		if len(g.recent) > 0 && g.rng.IntN(2) == 0 {
			l := g.recent[g.rng.IntN(len(g.recent))]
			return triageReq{kind: "query", queries: []fingerprint.QueryRequest{{Fingerprint: l.F, Label: l.Y, K: queryK}}}
		}
		q := g.query()
		if len(g.recent) == replayWindow {
			g.recent = g.recent[1:]
		}
		g.recent = append(g.recent, fingerprint.Linkage{F: q.Fingerprint, Y: q.Label})
		return triageReq{kind: "query", queries: []fingerprint.QueryRequest{q}}
	case u < 0.80:
		qs := make([]fingerprint.QueryRequest, batchQueries)
		for i := range qs {
			qs[i] = g.query()
		}
		return triageReq{kind: "batch", queries: qs}
	default:
		es := make([]fingerprint.IngestEntry, ingestEntries)
		for i := range es {
			l := g.gs.fresh(g.rng, g.rng.IntN(g.writeLabels()))
			h := entryHash(g.nextHash)
			g.nextHash++
			es[i] = fingerprint.IngestEntry{Fingerprint: l.F, Label: l.Y, Source: l.S, Hash: hex.EncodeToString(h[:])}
		}
		return triageReq{kind: "ingest", entries: es}
	}
}

// topology is the triage deployment: a router in front of shards ×
// replicas daemons, every one on its own loopback listener.
type topology struct {
	router   *running
	tracer   *obs.Tracer
	replicas []*running
	tp       *http.Transport
	spec     *timedSpec
	build    time.Duration // Deployment.Build of every replica plus the router
}

func buildTopology(db *fingerprint.DB, dir string, traced bool) (*topology, error) {
	t := &topology{spec: &timedSpec{BackendSpec: serve.FlatSpec{}}, tp: &http.Transport{MaxIdleConnsPerHost: 4}}
	m, err := shard.NewHashMap(shards)
	if err != nil {
		return nil, err
	}
	reps := make([][]shard.Replica, shards)
	rpc := &http.Client{Transport: t.tp}
	for r := 0; r < replicas; r++ {
		// Each replica owns a private copy of its shard, as it would in
		// its own process.
		parts, err := shard.SplitDB(db, m)
		if err != nil {
			return nil, err
		}
		for sid, part := range parts {
			d := serve.Deployment{
				Backend: t.spec,
				WAL: &serve.WALConfig{
					Dir:   filepath.Join(dir, fmt.Sprintf("shard-%d-replica-%d", sid, r)),
					Store: ingest.Options{WAL: ingest.WALOptions{Sync: ingest.SyncAlways}},
				},
				Observability: observability(traced),
			}
			b := time.Now()
			srv, err := d.Build(part)
			t.build += time.Since(b)
			if err != nil {
				t.stop()
				return nil, fmt.Errorf("shard %d replica %d: %w", sid, r, err)
			}
			run, err := start(srv)
			if err != nil {
				t.stop()
				return nil, err
			}
			t.replicas = append(t.replicas, run)
			reps[sid] = append(reps[sid], shard.NewHTTPReplica(run.url, rpc))
		}
	}
	t.tracer = obs.NewTracer(tracing(traced))
	b := time.Now()
	rs, err := serve.NewRouter(m, reps,
		shard.WithRouterResponseCache(cacheEntries),
		shard.WithObservability(fingerprint.Observability{Component: "router", Tracer: t.tracer}))
	t.build += time.Since(b)
	if err != nil {
		t.stop()
		return nil, err
	}
	if t.router, err = start(rs); err != nil {
		t.stop()
		return nil, err
	}
	if err := healthy(t.router.url); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *topology) stop() error {
	var errs []error
	if t.router != nil {
		errs = append(errs, t.router.stop())
	}
	for _, r := range t.replicas {
		errs = append(errs, r.stop())
	}
	t.tp.CloseIdleConnections()
	return errors.Join(errs...)
}

func (t *topology) stores() []*obs.TraceStore {
	out := []*obs.TraceStore{t.tracer.Store()}
	for _, r := range t.replicas {
		out = append(out, r.srv.TraceStore())
	}
	return out
}

// walTotals sums the replicas' WAL bytes and accepted entries.
func (t *topology) walTotals() (bytes int64, accepted uint64) {
	for _, r := range t.replicas {
		st := r.srv.Store().IngestStats()
		bytes += st.WALBytes
		accepted += st.Accepted
	}
	return bytes, accepted
}

// triageLog is what the issue path keeps for the checks after the run.
type triageLog struct {
	mu    sync.Mutex
	acked [][]fingerprint.IngestEntry // per acknowledged write request
	reads []checkedRead               // answers on labels no write touches
}

type checkedRead struct {
	q       fingerprint.QueryRequest
	matches []fingerprint.MatchJSON
}

func runTriage(e *env, sz triageSize) (*report, error) {
	rep := newReport()
	db, gs, err := linkageDB(rand.New(rand.NewPCG(e.seed, 1)), sz.labels, sz.perLabel)
	if err != nil {
		return nil, err
	}
	gen := &triageGen{rng: rand.New(rand.NewPCG(e.seed, 2)), gs: gs, nextHash: uint64(db.Len())}
	total := time.Duration(e.seconds * float64(time.Second))

	setups := sz.setups
	if e.traced {
		setups = 1
	}
	var top *topology
	var setupS []float64
	for i := 0; i < setups; i++ {
		if top != nil {
			if err := top.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		top, err = buildTopology(db, e.walPath(fmt.Sprintf("setup-%d", i)), false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer top.stop()
	log := &triageLog{}

	if !e.traced {
		rep.set("setup_s", median(setupS), "s")
		rep.set("heap_mb", heapMB(), "MiB")
		p, err := triagePhases(e, top.router.url, gen, log, sz, total, false)
		if err != nil {
			return nil, err
		}
		rep.set("latency_p50_ms", p.latency(0.5, "query"), "ms")
		rep.set("latency_p90_ms", p.latency(0.9, "query"), "ms")
		rep.set("throughput_per_s", p.capacity(), "1/s")
		rep.set("read_p50_ms", p.latency(0.5, "query"), "ms")
		rep.set("read_p90_ms", p.latency(0.9, "query"), "ms")
		rep.set("mix_p50_ms", p.latency(0.5), "ms")
		rep.set("mix_p90_ms", p.latency(0.9), "ms")
		rep.set("batch_p50_ms", p.latency(0.5, "batch"), "ms")
		rep.set("write_p50_ms", p.latency(0.5, "ingest"), "ms")
		rep.set("write_p90_ms", p.latency(0.9, "ingest"), "ms")
		rep.set("capacity_ops_per_s", p.capacity(), "ops/s")
		rep.set("open_loop_requests", float64(len(pool(p.open))), "count")
		rep.set("quiet_round_share", p.quietShare(), "ratio")
		recordPhases(rep, p)
		return rep, checkTriage(rep, top.router.url, db, log)
	}

	// Traced run: the untraced topology and a traced one take turns,
	// each for half the time.
	tt, err := buildTopology(db, e.walPath("traced"), true)
	if err != nil {
		return nil, err
	}
	defer tt.stop()
	bytes0, acc0 := tt.walTotals()
	tlog := &triageLog{}
	up, tp, err := takeTurns(total, func(d time.Duration, tr bool) (phases, error) {
		if tr {
			return triagePhases(e, tt.router.url, gen, tlog, sz, d, true)
		}
		return triagePhases(e, top.router.url, gen, log, sz, d, false)
	})
	if err != nil {
		return nil, err
	}
	recordPhases(rep, up)
	if err := checkTriage(rep, top.router.url, db, log); err != nil {
		return nil, err
	}
	recordPhases(rep, tp)
	bytes1, acc1 := tt.walTotals()
	js, missing := joinTraces(tp.all(), tt.stores())
	if missing > 0 {
		rep.fail(0, "%d client spans have no server trace", missing)
	}
	writes := 0
	for _, s := range tp.all() {
		if s.kind == "ingest" {
			writes++
		}
	}
	layerStats(rep, js, writes)
	clientStats(rep, tp)
	traceOverhead(rep, up.capacity(), tp.capacity())
	if acc1 > acc0 {
		rep.set("ingest.wal_bytes_per_entry", float64(bytes1-bytes0)/float64(acc1-acc0), "B")
	}
	rep.set("index.train_s", tt.spec.elapsed().Seconds(), "s")
	rep.set("serve.build_s", tt.build.Seconds(), "s")
	rep.set("index.bytes_per_entry", bytesPerEntry(tt.replicas[0].srv.Service().Searcher()), "B")
	return rep, checkTriage(rep, tt.router.url, db, tlog)
}

func triagePhases(e *env, url string, gen *triageGen, log *triageLog, sz triageSize, total time.Duration, traced bool) (phases, error) {
	cs, closeClients := clients(url)
	defer closeClients()
	untouched := gen.writeLabels()
	keep := func(q fingerprint.QueryRequest, r *fingerprint.QueryResponse) error {
		if len(r.Matches) != q.K {
			return fmt.Errorf("%d matches, want %d", len(r.Matches), q.K)
		}
		if q.Label >= untouched {
			log.mu.Lock()
			log.reads = append(log.reads, checkedRead{q: q, matches: r.Matches})
			log.mu.Unlock()
		}
		return nil
	}
	issue := func(ctx context.Context, w int) (string, error) {
		req := gen.next()
		switch req.kind {
		case "query":
			q := req.queries[0]
			resp, err := cs[w].QueryCtx(ctx, q.Fingerprint, q.Label, q.K)
			if err != nil {
				return req.kind, err
			}
			return req.kind, keep(q, resp)
		case "batch":
			resp, err := cs[w].QueryBatchCtx(ctx, req.queries)
			if err != nil {
				return req.kind, err
			}
			if len(resp.Results) != len(req.queries) {
				return req.kind, fmt.Errorf("%d results for %d queries", len(resp.Results), len(req.queries))
			}
			for i, r := range resp.Results {
				if r.Error != "" {
					return req.kind, fmt.Errorf("query %d: %s", i, r.Error)
				}
				if err := keep(req.queries[i], r.QueryResponse); err != nil {
					return req.kind, err
				}
			}
			return req.kind, nil
		default:
			resp, err := cs[w].IngestCtx(ctx, req.entries)
			if err != nil {
				return req.kind, err
			}
			if resp.Accepted != len(req.entries) || resp.Failed != 0 {
				return req.kind, fmt.Errorf("accepted %d of %d entries (%v)", resp.Accepted, len(req.entries), resp.ShardErrors)
			}
			log.mu.Lock()
			log.acked = append(log.acked, req.entries)
			log.mu.Unlock()
			return req.kind, nil
		}
	}
	if err := warmUp(cs, func() fingerprint.QueryRequest {
		gen.mu.Lock()
		defer gen.mu.Unlock()
		return gen.query()
	}); err != nil {
		return phases{}, err
	}
	return runPhases(context.Background(), e.seed, sz.rate, total, issue, traced), nil
}

// checkTriage reads every acknowledged write back at k=1, expecting the
// entry itself at distance 0 with its source, and compares every kept
// answer on an unwritten label with the exact scan of the generated
// database, bit for bit.
func checkTriage(rep *report, url string, db *fingerprint.DB, log *triageLog) error {
	c := fingerprint.NewClient(url, &http.Client{Timeout: 30 * time.Second})
	badWrites := 0
	for _, entries := range log.acked {
		ok := true
		for lo := 0; lo < len(entries); lo += readbackBatch {
			chunk := entries[lo:min(lo+readbackBatch, len(entries))]
			qs := make([]fingerprint.QueryRequest, len(chunk))
			for i, en := range chunk {
				qs[i] = fingerprint.QueryRequest{Fingerprint: en.Fingerprint, Label: en.Label, K: 1}
			}
			resp, err := c.QueryBatch(qs)
			if err != nil {
				return fmt.Errorf("read back: %w", err)
			}
			for i, r := range resp.Results {
				if r.Error != "" || len(r.Matches) != 1 {
					ok = false
					continue
				}
				m := r.Matches[0]
				if m.Distance != 0 || m.Source != chunk[i].Source || m.Hash != chunk[i].Hash {
					ok = false
				}
			}
		}
		if !ok {
			badWrites++
		}
	}
	if badWrites > 0 {
		rep.fail(badWrites, "%d acknowledged writes did not read back at distance 0 with their source", badWrites)
	}
	badReads := 0
	for _, r := range log.reads {
		want, err := db.Query(r.q.Fingerprint, r.q.Label, r.q.K)
		if err != nil {
			return err
		}
		if !sameMatches(r.matches, want) {
			badReads++
		}
	}
	if badReads > 0 {
		rep.fail(badReads, "%d answers on unwritten labels differ from the exact scan", badReads)
	}
	rep.set("checked_writes", float64(len(log.acked)), "count")
	rep.set("checked_reads", float64(len(log.reads)), "count")
	log.acked, log.reads = nil, nil
	return nil
}

func sameMatches(got []fingerprint.MatchJSON, want []fingerprint.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Source != w.Source || g.Label != w.Label || g.Hash != hex.EncodeToString(w.Hash[:]) ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			return false
		}
	}
	return true
}
