package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/store"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 down to 1
	}
	if got, err := quantile(xs, 0.99, minBeyond); err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := quantile(xs[:999], 0.99, minBeyond); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if got, err := quantile(xs[900:], 0.90, minBeyond); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := quantile(xs[901:], 0.90, minBeyond); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopCountsLatenessFromDueTime stalls one request of an open
// loop and checks that the requests due during the stall are sent late,
// by how much, and that the schedule ends at its deadline.
func TestOpenLoopCountsLatenessFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	start := time.Now()
	end := start.Add(10 * interval)
	var late []time.Duration
	openLoop(start, interval, func(t time.Time) bool { return t.Before(end) }, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		late = append(late, time.Since(due))
		if i == 1 {
			time.Sleep(4 * interval) // request 2, due at 2×, goes out at about 5×
		}
	})
	if len(late) != 10 {
		t.Fatalf("sent %d requests, want 10 due before the deadline", len(late))
	}
	if late[2] < 2*interval {
		t.Errorf("request 2 was %v late, want at least %v", late[2], 2*interval)
	}
	if late[3] < interval || late[3] >= late[2] {
		t.Errorf("request 3 was %v late, want between %v and request 2's %v", late[3], interval, late[2])
	}
	if late[9] > interval {
		t.Errorf("request 9 was %v late; the loop should have caught up", late[9])
	}
}

func trainedSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := classify.New("id3")
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmokingWith(generate(trainNotes, trainSeed(1), 0), backend)
	return sys
}

// TestOracleAgreesWithWarehouse builds a warehouse from generated notes
// and checks the oracle's charts and ask answers against it.
func TestOracleAgreesWithWarehouse(t *testing.T) {
	sys := trainedSystem(t)
	pool := notePool{pool: generate(40, 7, 0.5), firstID: 1}
	var charts [][]chartRow
	var exs []core.Extraction
	for k := 0; k < 80; k++ { // every pool note twice, under two ids
		note, err := pool.note(k)
		if err != nil {
			t.Fatal(err)
		}
		ex := sys.Process(note.Text)
		if ex.Patient != k+1 {
			t.Fatalf("renumbered note %d extracts as patient %d", k+1, ex.Patient)
		}
		exs = append(exs, ex)
		charts = append(charts, chartOf(ex))
	}
	db := store.OpenMemorySharded(2)
	defer db.Close()
	if _, err := core.PersistAll(db, exs); err != nil {
		t.Fatal(err)
	}
	ont, err := ontology.New(ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wh, err := core.OpenWarehouse(db, ont)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range charts {
		rows, err := wh.Patient(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]chartRow, len(rows))
		for j, r := range rows {
			got[j] = chartRow{r.Attribute, r.Value, r.Numeric}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("patient %d: warehouse chart %v, oracle %v", i+1, got, want)
		}
	}
	mix, err := newReadMix(3, charts, resolver(ont))
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.asks) != 3*askPool {
		t.Fatalf("%d asks, want %d", len(mix.asks), 3*askPool)
	}
	nonEmpty := 0
	for _, a := range mix.asks {
		cs := make([]core.Cond, len(a.conds))
		for i, c := range a.conds {
			cs[i] = c.core()
		}
		got, _, err := wh.Ask(cs...)
		if err != nil {
			t.Fatal(err)
		}
		want := a.answer(charts, 1)
		if !slices.Equal(got, want) {
			t.Fatalf("ask %s: warehouse %v, oracle %v", a.body, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(mix.asks)/2 {
		t.Fatalf("only %d of %d asks have answers; the comparison is too weak", nonEmpty, len(mix.asks))
	}
}

// TestVerifierRejectsWrongAnswers feeds the verifier right and wrong
// daemon answers.
func TestVerifierRejectsWrongAnswers(t *testing.T) {
	lo, hi := 60.0, 80.0
	e := &env{
		w:      workload{ingestClients: 1},
		charts: [][]chartRow{{{Attr: "pulse", Value: "70", Numeric: 70}}, {{Attr: "pulse", Value: "90", Numeric: 90}}},
		mix:    &readMix{asks: []ask{{conds: []cond{{Attr: "pulse", Min: &lo, Max: &hi}}}}},
	}
	e.answers = [][]int64{e.mix.asks[0].answer(e.charts, 1)}
	if !slices.Equal(e.answers[0], []int64{1}) {
		t.Fatalf("oracle answer %v, want [1]", e.answers[0])
	}
	for _, tc := range []struct {
		name              string
		body              string
		ackedAtSend, sent int64
		ok                bool
	}{
		{"exact", `{"patients":[1]}`, 0, 0, true},
		{"missing preloaded patient", `{"patients":[]}`, 0, 0, false},
		{"extra preloaded patient", `{"patients":[1,2]}`, 0, 0, false},
		{"new note sent before the reply", `{"patients":[1,3]}`, 0, 1, true},
		{"new note never sent", `{"patients":[1,3]}`, 0, 0, false},
	} {
		v := &verifier{e: e}
		v.checkAsk(0, []byte(tc.body), tc.ackedAtSend, tc.sent)
		if err := v.err(); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	v := &verifier{e: e}
	v.checkAsk(0, []byte(`{"patients":[1,3]}`), 1, 1)
	if len(v.checks) != 1 || !v.checks[0].listed[0] || v.checks[0].ackedAtSend != 1 {
		t.Fatalf("sampled new note 0 not kept for the after-run check: %+v", v.checks)
	}

	v = &verifier{e: e}
	v.checkChart(1, []byte(`{"patient":1,"rows":[{"patient":1,"attribute":"pulse","value":"70","numeric":70}]}`), e.charts[0])
	if err := v.err(); err != nil {
		t.Fatal(err)
	}
	v.checkChart(1, []byte(`{"patient":1,"rows":[{"patient":1,"attribute":"pulse","value":"71","numeric":71}]}`), e.charts[0])
	if v.err() == nil {
		t.Fatal("a wrong chart value passed")
	}

	// After the run, an ask that left out a sampled new note the oracle
	// matches fails the gate, unless the note's batch failed: the daemon
	// may never have stored it.
	sys := trainedSystem(t)
	ne := &env{w: workload{ingestClients: 1, batch: 1}, sys: sys, charts: e.charts,
		pool: notePool{pool: generate(1, 9, 0), firstID: len(e.charts) + 1}}
	ne.wr = &writer{e: ne}
	note, err := ne.pool.note(0)
	if err != nil {
		t.Fatal(err)
	}
	r := chartOf(sys.Process(note.Text))[0]
	ne.mix = &readMix{asks: []ask{{conds: []cond{{Attr: r.Attr, Term: r.Value}}}}}
	v = &verifier{e: ne, checks: []askCheck{{ask: 0, ackedAtSend: 1, listed: map[int64]bool{}}}}
	if ne.checkNewNotesInAsks(v) == nil {
		t.Fatal("an ask missing an acknowledged matching note passed")
	}
	ne.wr.fail(0, &recorder{}, errors.New("timeout"))
	if err := ne.checkNewNotesInAsks(v); err != nil {
		t.Fatalf("a note of a failed batch was checked: %v", err)
	}
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced,
// on a small preload, and checks that each prints exactly the metrics
// BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs medexd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			small := w
			small.preloadNotes = min(w.preloadNotes, 300)
			small.cacheMB = 0
			o := options{root: "..", workload: w.name, seed: 5, seconds: 2, trace: trace, minBeyond: 1}
			var out bytes.Buffer
			res, err := run(o, small, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %+v", w.name, trace, res)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "setup_s") {
				t.Errorf("%s: report lacks setup_s:\n%s", w.name, out.String())
			}
		}
	}
}
