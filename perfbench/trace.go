package main

import (
	"sort"
	"strconv"
	"time"

	"caltrain/internal/obs"
)

// Tracing in the traced run: every deployment's existing tracer keeps
// every sampled trace (sampling on, a store sized past the run's
// request count), the benchmark wraps each request in its own client
// span whose context rides the request as a sampled traceparent, and
// client spans are joined to the servers' traces by trace ID.

// tracedStoreSize keeps every trace of a traced run. The store's slow
// lane is a quarter of it and scans linearly once full, so it is sized
// to never fill either.
const tracedStoreSize = 1 << 17

// span is one server span of a joined request, with its children.
type span struct {
	obs.SpanSnapshot
	parent   *span
	children []*span
}

func (s *span) end() time.Time { return s.Start.Add(time.Duration(s.DurationUS) * time.Microsecond) }

func (s *span) dur() time.Duration { return time.Duration(s.DurationUS) * time.Microsecond }

// self is the span's duration minus the part of it its children cover.
func (s *span) self() time.Duration {
	var covered time.Duration
	for _, g := range overlapGroups(s.children) {
		lo, hi := g.lo, g.hi
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(s.end()) {
			hi = s.end()
		}
		if hi.After(lo) {
			covered += hi.Sub(lo)
		}
	}
	return max(s.dur()-covered, 0)
}

// blocking is the time along the span's blocking path: its self time
// plus, for each run of overlapping children, the longest child's
// blocking path — the children that ran in parallel wait on the slowest.
func (s *span) blocking() time.Duration {
	total := s.self()
	for _, g := range overlapGroups(s.children) {
		var longest time.Duration
		for _, c := range g.spans {
			longest = max(longest, c.blocking())
		}
		total += longest
	}
	return total
}

type group struct {
	lo, hi time.Time
	spans  []*span
}

// overlapGroups partitions spans into runs whose intervals overlap.
func overlapGroups(spans []*span) []group {
	sorted := append([]*span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	var out []group
	for _, s := range sorted {
		if n := len(out); n > 0 && s.Start.Before(out[n-1].hi) {
			out[n-1].spans = append(out[n-1].spans, s)
			if s.end().After(out[n-1].hi) {
				out[n-1].hi = s.end()
			}
			continue
		}
		out = append(out, group{lo: s.Start, hi: s.end(), spans: []*span{s}})
	}
	return out
}

// joined is one traced request: the client's view and the server span
// tree stitched from every store that kept part of its trace.
type joined struct {
	sample
	root  *span   // the entry server's root span, a child of the client span
	spans []*span // every server span of the trace
}

// joinTraces stitches each traced sample to its server spans. It
// returns the joined requests and how many client spans found no server
// trace with their trace ID.
func joinTraces(samples []sample, stores []*obs.TraceStore) ([]joined, int) {
	var out []joined
	missing := 0
	for _, s := range samples {
		if s.traceID == "" {
			continue
		}
		byID := map[string]*span{}
		var spans []*span
		for _, st := range stores {
			snap := st.Get(s.traceID)
			if snap == nil {
				continue
			}
			for _, ss := range snap.Spans {
				sp := &span{SpanSnapshot: ss}
				byID[ss.ID] = sp
				spans = append(spans, sp)
			}
		}
		j := joined{sample: s, spans: spans}
		for _, sp := range spans {
			if p, ok := byID[sp.Parent]; ok {
				sp.parent = p
				p.children = append(p.children, sp)
			} else if sp.Parent == s.spanID {
				j.root = sp
			}
		}
		if j.root == nil {
			missing++
			continue
		}
		out = append(out, j)
	}
	return out, missing
}

// layerStats reduces joined requests to the serving tier's per-layer
// metrics.
func layerStats(rep *report, js []joined, writes int) {
	byName := map[string][]float64{}
	var rttSelf, unaccounted []float64
	reqUS := map[string][]float64{}
	selfUS := map[string][]float64{}
	var rootSum, searchSum time.Duration
	var attempts, legs, lookups, hits, fsyncs, nspans int
	var perQuery, apply []float64
	for _, j := range js {
		rttSelf = append(rttSelf, us(j.rtt-j.root.dur()))
		// Client latency minus the self times along the blocking path:
		// the client's own (rtt minus the root) and the servers'.
		clientSelf := j.rtt - j.root.dur()
		unaccounted = append(unaccounted, us(j.rtt-clientSelf-j.root.blocking()))
		reqUS[j.kind] = append(reqUS[j.kind], us(j.root.dur()))
		selfUS[j.kind] = append(selfUS[j.kind], us(j.root.self()))
		rootSum += j.root.dur()
		nspans += len(j.spans)
		for _, sp := range j.spans {
			byName[sp.Name] = append(byName[sp.Name], us(sp.dur()))
			switch sp.Name {
			case "search":
				searchSum += sp.dur()
				n := 1.0
				if b, err := strconv.Atoi(attr(sp, "batch")); err == nil && b > 0 {
					n = float64(b)
				}
				perQuery = append(perQuery, us(sp.dur())/n)
			case "shard_attempt":
				attempts++
			case "scatter":
				if n, err := strconv.Atoi(attr(sp, "shards")); err == nil {
					legs += n
				}
			case "cache_lookup":
				lookups++
				if attr(sp, "hit") == "true" {
					hits++
				}
			case "fsync":
				fsyncs++
			case "wal_append":
				// The replica's ingest root minus its WAL append is
				// decode, apply to database and index, and reply.
				if sp.parent != nil {
					apply = append(apply, us(sp.parent.dur()-sp.dur()))
				}
			}
		}
	}
	rep.set("client.rtt_self_us", median(rttSelf), "us")
	rep.set("trace.unaccounted_us", mean(unaccounted), "us")
	rep.set("trace.server_spans", float64(nspans), "count")
	for kind, v := range reqUS {
		rep.set("server.request_us."+kind, median(v), "us")
		rep.set("server.self_us."+kind, median(selfUS[kind]), "us")
	}
	for _, n := range []struct{ span, metric string }{
		{"route", "shard.route_us"},
		{"scatter", "shard.scatter_us"},
		{"rpc", "shard.rpc_us"},
		{"replicate", "shard.replicate_us"},
		{"search", "fingerprint.search_us"},
		{"wal_append", "ingest.wal_append_us"},
		{"fsync", "ingest.fsync_us"},
	} {
		if v := byName[n.span]; len(v) > 0 {
			rep.set(n.metric, median(v), "us")
		}
	}
	if len(perQuery) > 0 {
		rep.set("fingerprint.search_us_per_query", median(perQuery), "us")
	}
	if legs > 0 {
		rep.set("shard.attempts_per_request", float64(attempts)/float64(legs), "count")
	}
	if lookups > 0 {
		rep.set("shard.cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	}
	if rootSum > 0 {
		rep.set("index.search_share", float64(searchSum)/float64(rootSum), "ratio")
	}
	if writes > 0 && fsyncs > 0 {
		rep.set("ingest.fsyncs_per_write", float64(fsyncs)/float64(writes), "count")
	}
	if len(apply) > 0 {
		rep.set("ingest.apply_us", median(apply), "us")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func attr(s *span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// clientStats reports the generator's own per-layer rows from a traced
// run's samples.
func clientStats(rep *report, p phases) {
	open := pool(p.open)
	var late []float64
	for _, s := range open {
		late = append(late, ms(s.late))
	}
	rep.set("client.late_p99_ms", quantile(late, 0.99), "ms")
	if v := latencies(open, "query", "batch"); len(v) > 0 {
		rep.set("client.read_p99_ms", quantile(v, 0.99), "ms")
	}
	if v := latencies(open, "ingest"); len(v) > 0 {
		rep.set("client.write_p99_ms", quantile(v, 0.99), "ms")
	}
}

// traceOverhead is how much slower the traced run served than the
// untraced one, from their closed-loop capacities.
func traceOverhead(rep *report, untraced, traced float64) {
	if traced > 0 {
		rep.set("trace.overhead_pct", 100*(untraced/traced-1), "%")
	}
}
