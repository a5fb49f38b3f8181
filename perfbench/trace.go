package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/linkgram"
	"repro/internal/ontology"
	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/store"
	"repro/internal/textproc"
)

// The traced run repeats a workload's inputs in-process on one
// goroutine and times the benchmark's own calls into each module's
// public functions. It never runs while end-to-end numbers are taken.

// layerSumTolerance is how far the traced layers may fall short of the
// traced whole path before the trace counts as missing a layer: the
// unspanned remainder is the Extraction's assembly and the timer reads.
const layerSumTolerance = 0.01

// pipelineTrace accumulates the ingest path, layer by layer.
type pipelineTrace struct {
	notes, batches, rows int
	// One span per layer; their sum is checked against whole.
	decode, analyze, tag, parse, numeric, terms, classify, persist, sync time.Duration
	whole                                                                time.Duration
	// untraced is the plain sys.ProcessDoc time of the same notes;
	// traced is the spanned per-note time that replaces it.
	untraced, traced       time.Duration
	tagPasses, parsePasses uint64 // counted during the untraced pass
	parseAttempts, noLink  int
	walBytes               int64
}

func (t *pipelineTrace) layerSum() time.Duration {
	return t.decode + t.analyze + t.tag + t.parse + t.numeric + t.terms + t.classify + t.persist + t.sync
}

// analyzedSections names the sections ProcessDoc reads sentence by
// sentence: the numeric fields', the three term sections and the
// smoking classifier's.
func analyzedSections(sys *core.System) []string {
	seen := map[string]bool{}
	var out []string
	add := func(h string) {
		if k := strings.ToLower(h); !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
	}
	for _, f := range sys.Numeric.Fields {
		for _, s := range f.Sections {
			add(s)
		}
	}
	for _, s := range []string{"Past Medical History", "Past Surgical History", "Medications"} {
		add(s)
	}
	if sys.Smoking != nil {
		add(sys.Smoking.Field.Section)
	}
	return out
}

// sentRef is one sentence of one analyzed section.
type sentRef struct {
	header string
	i      int
}

// probeMemo reports which sentences of an already processed document
// were tagged and which were parsed. A SentenceDerived slot runs its
// compute function only when nothing is memoized, so a compute that
// runs marks a sentence that the pipeline did not reach.
func probeMemo(doc *textproc.Document, headers []string) (tagged, parsed []sentRef) {
	for _, h := range headers {
		sec, ok := doc.Section(h)
		if !ok {
			continue
		}
		for i := range sec.Sentences() {
			d := sec.Derived(i)
			wasTagged, wasParsed := true, true
			d.Tags(func() any { wasTagged = false; return nil })
			d.Parse(func() (any, error) { wasParsed = false; return nil, nil })
			if wasTagged {
				tagged = append(tagged, sentRef{h, i})
			}
			if wasParsed {
				parsed = append(parsed, sentRef{h, i})
			}
		}
	}
	return tagged, parsed
}

// tracePipeline sends batches of notes through the ingest path: decode
// the NDJSON body, then per note the untraced ProcessDoc followed by a
// spanned re-run of the same work (analysis, the memoized tags and
// parses, each extractor in ProcessDoc's order, now self time), then
// persist the batch and sync. The spanned composition must rebuild
// ProcessDoc's Extraction exactly.
func tracePipeline(sys *core.System, db store.Engine, batches [][]records.Record) (*pipelineTrace, error) {
	t := &pipelineTrace{}
	headers := analyzedSections(sys)
	for _, batch := range batches {
		body, err := ndjson(batch)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var recs []records.Record
		for rec, err := range records.DecodeStream(context.Background(), bytes.NewReader(body)) {
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		d := time.Since(start)
		t.decode += d
		t.whole += d

		exs := make([]core.Extraction, len(recs))
		for i, rec := range recs {
			if exs[i], err = t.note(sys, headers, rec.Text); err != nil {
				return nil, fmt.Errorf("note %d: %w", rec.ID, err)
			}
		}

		logBefore := db.LogSize()
		start = time.Now()
		n, err := core.PersistAll(db, exs)
		if err != nil {
			return nil, err
		}
		mid := time.Now()
		if err := db.Sync(); err != nil {
			return nil, err
		}
		end := time.Now()
		t.persist += mid.Sub(start)
		t.sync += end.Sub(mid)
		t.whole += end.Sub(start)
		t.walBytes += db.LogSize() - logBefore
		t.rows += n
		t.notes += len(recs)
		t.batches++
	}
	return t, nil
}

// note traces one note and returns its Extraction.
func (t *pipelineTrace) note(sys *core.System, headers []string, text string) (core.Extraction, error) {
	tags0, parses0 := pos.TagPasses(), linkgram.ParsePasses()
	start := time.Now()
	probe := textproc.Analyze(text)
	want := sys.ProcessDoc(probe)
	t.untraced += time.Since(start)
	t.tagPasses += pos.TagPasses() - tags0
	t.parsePasses += linkgram.ParsePasses() - parses0
	tagged, parsed := probeMemo(probe, headers)

	// Each span covers only its layer's calls; the assembly of the
	// Extraction between them is left out, as the layer-sum check expects.
	span := func(d *time.Duration, f func()) {
		s := time.Now()
		f()
		*d += time.Since(s)
	}
	start = time.Now()
	var doc *textproc.Document
	span(&t.analyze, func() {
		doc = textproc.Analyze(text)
		for _, h := range headers {
			if sec, ok := doc.Section(h); ok {
				sec.Sentences()
			}
		}
	})
	span(&t.tag, func() {
		for _, r := range tagged {
			sec, _ := doc.Section(r.header)
			pos.TagSection(sec, r.i)
		}
	})
	span(&t.parse, func() {
		for _, r := range parsed {
			sec, _ := doc.Section(r.header)
			if _, err := linkgram.ParseSection(sec, r.i); errors.Is(err, linkgram.ErrNoLinkage) {
				t.noLink++
			}
		}
	})
	t.parseAttempts += len(parsed)

	var got core.Extraction
	span(&t.numeric, func() { got.Numeric = sys.Numeric.ExtractDoc(doc) })
	if sec, ok := doc.Section("Patient"); ok {
		if id, err := strconv.Atoi(strings.TrimSpace(sec.Body)); err == nil {
			got.Patient = id
		}
	}
	var terms []core.ExtractedTerm
	if sec, ok := doc.Section("Past Medical History"); ok {
		span(&t.terms, func() { terms = sys.Terms.ExtractSection(sec, ontology.PredefinedMedical) })
		got.PreMedical, got.OtherMedical = core.SplitTerms(terms)
	}
	if sec, ok := doc.Section("Past Surgical History"); ok {
		span(&t.terms, func() { terms = sys.Terms.ExtractSection(sec, ontology.PredefinedSurgical) })
		got.PreSurgical, got.OtherSurgical = core.SplitTerms(terms)
	}
	if sec, ok := doc.Section("Medications"); ok {
		span(&t.terms, func() { terms = sys.Terms.ExtractSection(sec, nil) })
		for _, term := range terms {
			if term.Concept.Type == ontology.Medication {
				got.Medications = append(got.Medications, term.Concept.Preferred)
			}
		}
	}
	if sys.Smoking != nil {
		span(&t.classify, func() { got.Smoking = sys.Smoking.ClassifyDoc(doc) })
	}
	d := time.Since(start)
	t.traced += d
	t.whole += d
	if !reflect.DeepEqual(got, want) {
		return got, gatef("traced composition drifted from ProcessDoc:\n traced  %+v\n process %+v", got, want)
	}
	return got, nil
}

// readTrace accumulates the query path.
type readTrace struct {
	asks, conds, patients      int
	ask, cond, patient         time.Duration
	askUS                      []float64
	rowsExamined, rowsReturned int
	cacheMisses, blocksPruned  int
}

// traceReads runs reads of the mix against an in-process warehouse:
// each ask through Warehouse.Ask, then each of its conditions straight
// through Table.Query with the predicates the warehouse builds, checked
// against Warehouse.Rows; each chart through Warehouse.Patient.
//
// Each ask runs once untimed first, so the timed Ask and the timed
// Table.Query calls of its conditions both start from the block cache
// as that same sequence of queries leaves it. Both also start on a
// collected heap, and the Warehouse.Rows checks run after the timed
// queries: otherwise the direct queries pay for collecting the Ask's
// garbage, and Ask less its conditions comes out negative.
func traceReads(wh *core.Warehouse, resolve func(string) string, mix *readMix, reads []read) (*readTrace, error) {
	t := &readTrace{}
	tbl := wh.Table()
	for _, r := range reads {
		if r.ask < 0 {
			start := time.Now()
			if _, err := wh.Patient(r.patient); err != nil {
				return nil, err
			}
			t.patient += time.Since(start)
			t.patients++
			continue
		}
		a := mix.asks[r.ask]
		cs := make([]core.Cond, len(a.conds))
		for i, c := range a.conds {
			cs[i] = c.core()
		}
		if _, _, err := wh.Ask(cs...); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		_, qs, err := wh.Ask(cs...)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		t.ask += d
		t.askUS = append(t.askUS, float64(d)/float64(time.Microsecond))
		t.asks++
		t.cacheMisses += qs.CacheMisses
		t.blocksPruned += qs.BlocksPruned
		runtime.GC()
		results := make([][]store.Row, len(a.conds))
		start = time.Now()
		for i, c := range a.conds {
			rows, st, err := tbl.Query(store.Query{Preds: preds(c, resolve)})
			if err != nil {
				return nil, err
			}
			results[i] = rows
			t.conds++
			t.rowsExamined += st.RowsExamined
			t.rowsReturned += len(rows)
		}
		t.cond += time.Since(start)
		for j, c := range a.conds {
			rows := results[j]
			viaWarehouse, _, err := wh.Rows(c.core())
			if err != nil {
				return nil, err
			}
			if len(viaWarehouse) != len(rows) {
				return nil, gatef("condition %+v: Table.Query returned %d rows, Warehouse.Rows %d", c, len(rows), len(viaWarehouse))
			}
			for i, row := range rows {
				if row[0].I != viaWarehouse[i].ID {
					return nil, gatef("condition %+v: Table.Query row %d is id %d, Warehouse.Rows has %d", c, i, row[0].I, viaWarehouse[i].ID)
				}
			}
		}
	}
	return t, nil
}

// preds builds a condition's predicates as the warehouse does: the
// attribute, the resolved term, inclusive numeric bounds.
func preds(c cond, resolve func(string) string) []store.Pred {
	ps := []store.Pred{store.Eq("attribute", store.Str(c.Attr))}
	if c.Term != "" {
		ps = append(ps, store.Eq("value", store.Str(resolve(c.Term))))
	}
	if c.Min != nil {
		ps = append(ps, store.Ge("numeric", store.Float(*c.Min)))
	}
	if c.Max != nil {
		ps = append(ps, store.Le("numeric", store.Float(*c.Max)))
	}
	return ps
}
