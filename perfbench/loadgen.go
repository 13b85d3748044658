package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// workers is the number of client connections and load goroutines.
const workers = 2

// issueFunc sends one request of the workload's mix on worker w's
// connection and returns its kind ("query", "batch" or "ingest"). A
// non-nil error counts the request as failed.
type issueFunc func(ctx context.Context, w int) (kind string, err error)

// sample is one request as the client saw it.
type sample struct {
	kind    string
	late    time.Duration // open loop: send time minus due time
	latency time.Duration // open loop: from due time; closed loop: from send
	rtt     time.Duration // send to reply
	err     error
	// traceID and spanID identify the client span of a traced request.
	traceID, spanID string
}

// clients returns one fingerprint.Client per worker, each on its own
// single-connection transport.
func clients(baseURL string) ([]*fingerprint.Client, func()) {
	var out []*fingerprint.Client
	var tps []*http.Transport
	for i := 0; i < workers; i++ {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		tps = append(tps, tp)
		out = append(out, fingerprint.NewClient(baseURL, &http.Client{Transport: tp, Timeout: 30 * time.Second}))
	}
	return out, func() {
		for _, tp := range tps {
			tp.CloseIdleConnections()
		}
	}
}

// send issues one request, wrapping it in a client span when traced. The
// span's context rides the request as a sampled traceparent, so every
// server on the path keeps its part of the trace under the same ID.
func send(ctx context.Context, w int, issue issueFunc, traced bool) sample {
	var s sample
	var span *obs.Span
	if traced {
		tr := obs.NewTrace(obs.NewRequestID())
		tr.SetSampled(true)
		ctx, span = obs.StartSpan(obs.WithTrace(ctx, tr), "client")
		s.traceID, s.spanID = tr.TraceID(), span.ID()
	}
	start := time.Now()
	s.kind, s.err = issue(ctx, w)
	s.rtt = time.Since(start)
	span.End()
	return s
}

// openLoop sends requests at Poisson arrival times of the given rate for
// dur, on the fixed set of workers: a request whose worker is still busy
// waits, and its latency counts from when it was due. The schedule comes
// from seed, so a seed fixes the arrival times.
func openLoop(ctx context.Context, seed uint64, rate float64, dur time.Duration, issue issueFunc, traced bool) []sample {
	rng := rand.New(rand.NewPCG(seed, 0x09e7))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			break
		}
		due = append(due, d)
	}
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := begin.Add(due[i])
				sleepUntil(at)
				late := time.Since(at)
				s := send(ctx, w, issue, traced)
				s.late = late
				s.latency = late + s.rtt
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(out))]
}

// sleepUntil blocks until about t. time.Sleep rounds sub-millisecond
// waits up to the runtime poller's millisecond tick, which would add most
// of a millisecond of lateness to every request; a nanosleep system call
// wakes within the kernel's timer slack (50µs by default), which the
// wait is shortened by.
func sleepUntil(t time.Time) {
	const slack = 50 * time.Microsecond
	if d := time.Until(t) - slack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the request later, which is measured
	}
}

// closedLoop keeps every worker sending back to back for dur and returns
// the completed requests.
func closedLoop(ctx context.Context, dur time.Duration, issue issueFunc, traced bool) []sample {
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := send(ctx, w, issue, traced)
				s.latency = s.rtt
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// roundLength is the length of one measurement round of an HTTP
// workload. The open-loop phase and then the closed-loop phase are each
// split into rounds, and the hypervisor's steal is measured over each
// round. Metrics pool the quieter rounds only (see quiet): on a shared
// host, a round in which other guests took the CPU away measures them,
// not the program. All open-loop rounds run first: their arrival
// schedule comes from the seed, so the state they build up (the triage
// writes) is the same on every host, whereas the closed loop writes as
// fast as the host allows.
const roundLength = 1500 * time.Millisecond

// quietSteal is the steal share, in percent, below which a round always
// counts as quiet.
const quietSteal = 1.0

// phases is the measured part of an HTTP workload.
type phases struct {
	open, closed []round
}

type round struct {
	samples []sample
	dur     time.Duration
	steal   float64 // percent of the machine's CPU time stolen during the round
}

// runPhases runs the open-loop phase at the workload's fixed rate for
// three fifths of the total, then the closed-loop capacity phase.
func runPhases(ctx context.Context, seed uint64, rate float64, total time.Duration, issue issueFunc, traced bool) phases {
	n := max(1, int((total+roundLength/2)/roundLength))
	per := total / time.Duration(n)
	openDur := per * 3 / 5
	var p phases
	for r := 0; r < n; r++ {
		steal := stealMeter()
		ss := openLoop(ctx, seed<<16+uint64(r), rate, openDur, issue, traced)
		pct, _ := steal()
		p.open = append(p.open, round{samples: ss, dur: openDur, steal: pct})
	}
	for r := 0; r < n; r++ {
		steal := stealMeter()
		ss := closedLoop(ctx, per-openDur, issue, traced)
		pct, _ := steal()
		p.closed = append(p.closed, round{samples: ss, dur: per - openDur, steal: pct})
	}
	return p
}

// add appends q's rounds to p.
func (p *phases) add(q phases) {
	p.open = append(p.open, q.open...)
	p.closed = append(p.closed, q.closed...)
}

// traceTurns is how many times a traced run alternates between the
// untraced and the traced deployment, so that both see the same host.
const traceTurns = 2

// takeTurns runs measure untraced and traced in turns, each for half of
// total in all.
func takeTurns(total time.Duration, measure func(d time.Duration, traced bool) (phases, error)) (untraced, traced phases, err error) {
	turn := total / (2 * traceTurns)
	for i := 0; i < traceTurns; i++ {
		for _, tr := range []bool{false, true} {
			p, err := measure(turn, tr)
			if err != nil {
				return phases{}, phases{}, err
			}
			if tr {
				traced.add(p)
			} else {
				untraced.add(p)
			}
		}
	}
	return untraced, traced, nil
}

// quietSet returns the indices of the measurements whose steal is at
// most the median steal or quietSteal, whichever is larger: every one on
// a quiet host, and at least half of them on a noisy one.
func quietSet(steals []float64) []int {
	limit := max(quietSteal, median(append([]float64(nil), steals...)))
	var out []int
	for i, s := range steals {
		if s <= limit {
			out = append(out, i)
		}
	}
	return out
}

// quiet returns the quiet rounds.
func quiet(rs []round) []round {
	var steals []float64
	for _, r := range rs {
		steals = append(steals, r.steal)
	}
	var out []round
	for _, i := range quietSet(steals) {
		out = append(out, rs[i])
	}
	return out
}

func pool(rs []round) []sample {
	var out []sample
	for _, r := range rs {
		out = append(out, r.samples...)
	}
	return out
}

// all returns every sample of both phases.
func (p phases) all() []sample { return append(pool(p.open), pool(p.closed)...) }

// capacity is completed requests per second over the quiet closed-loop
// rounds.
func (p phases) capacity() float64 {
	ok := 0
	var dur time.Duration
	for _, r := range quiet(p.closed) {
		dur += r.dur
		for _, s := range r.samples {
			if s.err == nil {
				ok++
			}
		}
	}
	return float64(ok) / dur.Seconds()
}

// latency is the q-quantile of open-loop latency over the quiet rounds,
// for requests of the given kinds (all kinds when none are given).
func (p phases) latency(q float64, kinds ...string) float64 {
	return quantile(latencies(pool(quiet(p.open)), kinds...), q)
}

// quietShare is the fraction of rounds the metrics use.
func (p phases) quietShare() float64 {
	return float64(len(quiet(p.open))+len(quiet(p.closed))) / float64(len(p.open)+len(p.closed))
}

// latencies returns the open-loop latencies of the given kinds (all kinds
// when none are given), failed requests included: a failure misses any
// latency limit, so it sorts as the longest possible wait.
func latencies(ss []sample, kinds ...string) []float64 {
	var out []float64
	for _, s := range ss {
		if len(kinds) > 0 && !contains(kinds, s.kind) {
			continue
		}
		d := s.latency
		if s.err != nil {
			d = time.Duration(1<<62 - 1)
		}
		out = append(out, ms(d))
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// warmUp settles each client's protocol negotiation and connection
// with a few queries before anything is timed.
func warmUp(cs []*fingerprint.Client, next func() fingerprint.QueryRequest) error {
	for _, c := range cs {
		for i := 0; i < 20; i++ {
			q := next()
			if _, err := c.Query(q.Fingerprint, q.Label, q.K); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// recordPhases counts the phases' requests and failures into the report.
func recordPhases(rep *report, p phases) {
	all := p.all()
	rep.attempted += len(all)
	failed := 0
	var first error
	for _, s := range all {
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	if failed > 0 {
		rep.fail(failed, "%d requests failed, first: %v", failed, first)
	}
}
