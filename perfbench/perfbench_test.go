package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
)

// Tiny sizes: every workload's full code path in about a second each.
// The tests check what a run prints and that the traces join; they never
// assert on timings.
var (
	investigateTiny = investigateSize{perLabel: 1500, rate: 200, sample: 20}
	triageTiny      = triageSize{labels: 8, perLabel: 60, rate: 100, setups: 2}
	trainTiny       = trainSize{perClass: 12, participants: 2, epochs: 2, setups: 1, pairs: 1}
)

func tinyRun(t *testing.T, workload string, traced bool) (*report, *result) {
	t.Helper()
	e := &env{seed: 3, seconds: 1, traced: traced, dir: t.TempDir()}
	var rep *report
	var err error
	switch workload {
	case "investigate":
		rep, err = runInvestigate(e, investigateTiny)
	case "triage":
		rep, err = runTriage(e, triageTiny)
	case "train":
		rep, err = runTrain(e, trainTiny)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		t.Fatalf("checks failed (%d of %d): %v", rep.failed, rep.attempted, rep.problems)
	}
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	res, err := rep.result(declared, traced)
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

// TestWorkloadsPrintEveryMetric runs each workload once untraced and once
// traced and checks that the result carries exactly the declared
// metrics, each with its declared unit, and passes its checks.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, res := tinyRun(t, w, traced)
				declared := endToEnd
				if traced {
					declared = perLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Fatalf("%d metrics in the result, %d declared", len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				var out bytes.Buffer
				rep.print(&out)
				if !strings.Contains(out.String(), "error_rate") {
					t.Errorf("report lacks the error_rate row:\n%s", out.String())
				}
				if traced {
					checkLayerSeparation(t, w, res)
				}
			})
		}
	}
}

// checkLayerSeparation checks the counts that show which layers a
// workload exercises: ingest only on triage, no server spans on train.
func checkLayerSeparation(t *testing.T, workload string, res *result) {
	t.Helper()
	v := func(n string) float64 { return res.Metrics[n].Value }
	if got := v("ingest.fsyncs_per_write") > 0; got != (workload == "triage") {
		t.Errorf("ingest.fsyncs_per_write = %v on %s", v("ingest.fsyncs_per_write"), workload)
	}
	if got := v("trace.server_spans") > 0; got != (workload != "train") {
		t.Errorf("trace.server_spans = %v on %s", v("trace.server_spans"), workload)
	}
	if workload == "triage" && v("shard.attempts_per_request") != 1 {
		t.Errorf("shard.attempts_per_request = %v, want 1 without failover", v("shard.attempts_per_request"))
	}
}

// TestClientSpansJoinServerTraces sends every kind of triage request as
// a traced client span and checks that each one finds the server trace
// with its trace ID, rooted under the client span, with the replicas'
// spans stitched in below the router's.
func TestClientSpansJoinServerTraces(t *testing.T) {
	db, gs, err := linkageDB(rand.New(rand.NewPCG(1, 1)), 8, 60)
	if err != nil {
		t.Fatal(err)
	}
	top, err := buildTopology(db, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer top.stop()
	gen := &triageGen{rng: rand.New(rand.NewPCG(1, 2)), gs: gs, nextHash: uint64(db.Len())}
	c := fingerprint.NewClient(top.router.url, nil)
	issue := func(ctx context.Context, _ int) (string, error) {
		req := gen.next()
		switch req.kind {
		case "query":
			q := req.queries[0]
			_, err := c.QueryCtx(ctx, q.Fingerprint, q.Label, q.K)
			return req.kind, err
		case "batch":
			_, err := c.QueryBatchCtx(ctx, req.queries)
			return req.kind, err
		default:
			_, err := c.IngestCtx(ctx, req.entries)
			return req.kind, err
		}
	}
	var samples []sample
	kinds := map[string]bool{}
	for len(kinds) < 3 || len(samples) < 30 {
		s := send(context.Background(), 0, issue, true)
		if s.err != nil {
			t.Fatal(s.err)
		}
		samples = append(samples, s)
		kinds[s.kind] = true
	}
	js, missing := joinTraces(samples, top.stores())
	if missing != 0 || len(js) != len(samples) {
		t.Fatalf("%d of %d client spans joined, %d without a server trace", len(js), len(samples), missing)
	}
	for _, j := range js {
		if j.root.Parent != j.spanID {
			t.Errorf("%s: server root's parent %s is not the client span %s", j.kind, j.root.Parent, j.spanID)
		}
		var names []string
		cached := false
		for _, sp := range j.spans {
			names = append(names, sp.Name)
			cached = cached || (sp.Name == "cache_lookup" && attr(sp, "hit") == "true")
		}
		want := "search"
		switch {
		case cached:
			continue // answered by the router's cache: no replica was asked
		case j.kind == "ingest":
			want = "fsync"
		}
		if !contains(names, "rpc") || !contains(names, want) {
			t.Errorf("%s trace lacks the replicas' spans: %v", j.kind, names)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in code", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
}

// TestRunRejectsBadArguments: a bad invocation exits non-zero without
// printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "train", "-trace", "2"},
		{"-workload", "train", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(append(args, "-workdir", t.TempDir()), &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
