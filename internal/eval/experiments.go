package eval

import (
	"fmt"
	"strings"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/id3"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/textproc"
)

// Experiments drive the reproduction of every table and figure in the
// paper's evaluation (§5) plus the ablations DESIGN.md calls out. Each
// Run* function is deterministic given its inputs and returns a printable
// result; cmd/evaltab and the benchmark suite are thin wrappers.

// E1Result is the numeric-field experiment: per-attribute precision and
// recall (the paper reports 100% on all eight attributes).
type E1Result struct {
	Strategy core.Strategy
	PerAttr  map[string]Accuracy
	Overall  Accuracy
}

// RunE1 extracts the eight numeric attributes from every record and
// scores them against gold.
func RunE1(recs []records.Record, strategy core.Strategy) E1Result {
	x := core.NewNumericExtractor(strategy)
	res := E1Result{Strategy: strategy, PerAttr: map[string]Accuracy{}}
	for _, r := range recs {
		got := x.ExtractDoc(textproc.Analyze(r.Text))
		for attr, gold := range r.Gold.Numeric {
			v, ok := got[attr]
			correct := ok && v.Value == gold.Value && (!v.Ratio || v.Value2 == gold.Value2)
			a := res.PerAttr[attr]
			a.Add(ok, correct)
			res.PerAttr[attr] = a
			res.Overall.Add(ok, correct)
		}
	}
	return res
}

// String renders the per-attribute table.
func (r E1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1 numeric extraction (%s)\n", r.Strategy)
	fmt.Fprintf(&b, "%-22s %10s %10s\n", "Attribute", "Precision", "Recall")
	for _, attr := range records.NumericAttrs {
		a, ok := r.PerAttr[attr]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-22s %9.1f%% %9.1f%%\n", attr, 100*a.Precision(), 100*a.Recall())
	}
	fmt.Fprintf(&b, "%-22s %9.1f%% %9.1f%%\n", "ALL", 100*r.Overall.Precision(), 100*r.Overall.Recall())
	return b.String()
}

// E2Result is Table 1: the four medical-term attributes.
type E2Result struct {
	ResolveSynonyms bool
	PreMedical      PR
	OtherMedical    PR
	PreSurgical     PR
	OtherSurgical   PR
}

// RunE2 reproduces Table 1 on the corpus with the given ontology and
// synonym-resolution setting (false = the paper's evaluated system).
func RunE2(recs []records.Record, ont *ontology.Ontology, resolveSynonyms bool) E2Result {
	sys := &core.System{
		Numeric: core.NewNumericExtractor(core.LinkGrammar),
		Terms:   &core.TermExtractor{Ont: ont, ResolveSynonyms: resolveSynonyms},
	}
	res := E2Result{ResolveSynonyms: resolveSynonyms}
	exs := sys.ProcessAll(recs, 0)
	for i, r := range recs {
		ex := exs[i]
		goldPreM, goldOtherM := records.SplitPredefined(r.Gold.PastMedical, ontology.PredefinedMedical)
		goldPreS, goldOtherS := records.SplitPredefined(r.Gold.PastSurgical, ontology.PredefinedSurgical)
		res.PreMedical.AddSets(ex.PreMedical, goldPreM)
		res.OtherMedical.AddSets(ex.OtherMedical, goldOtherM)
		res.PreSurgical.AddSets(ex.PreSurgical, goldPreS)
		res.OtherSurgical.AddSets(ex.OtherSurgical, goldOtherS)
	}
	return res
}

// String renders Table 1.
func (r E2Result) String() string {
	return Table(fmt.Sprintf("E2 / Table 1: medical term extraction (synonym resolution %v)", r.ResolveSynonyms),
		[]struct {
			Label string
			PR    PR
		}{
			{"Predefined Past Medical History", r.PreMedical},
			{"Other Past Medical History", r.OtherMedical},
			{"Predefined Past Surgical History", r.PreSurgical},
			{"Other Past Surgical History", r.OtherSurgical},
		})
}

// RunE3 reproduces the smoking cross-validation (§5): 5-fold CV repeated
// ten times with shuffles, on the paper's ID3 backend.
func RunE3(recs []records.Record, seed int64) classify.CVResult {
	return RunE3With(recs, seed, nil)
}

// RunE3With is RunE3 on a selectable classification backend (nil = the
// ID3 default), so the experiment can compare backends under the
// identical protocol.
func RunE3With(recs []records.Record, seed int64, b classify.Backend) classify.CVResult {
	return core.SmokingField().WithBackend(b).CrossValidate(recs, 5, 10, seed)
}

// A1Result compares association strategies on multi-feature sentences.
type A1Result struct {
	Rows []A1Row
}

// A1Row is one strategy's numeric-extraction score.
type A1Row struct {
	Strategy core.Strategy
	Overall  Accuracy
}

// RunA1 runs E1 under each association strategy on a corpus; with style
// diversity > 0 the pattern baselines fall behind link grammar.
func RunA1(recs []records.Record) A1Result {
	var res A1Result
	for _, s := range []core.Strategy{core.LinkGrammar, core.PatternOnly, core.ProximityOnly} {
		e1 := RunE1(recs, s)
		res.Rows = append(res.Rows, A1Row{Strategy: s, Overall: e1.Overall})
	}
	return res
}

// String renders the strategy comparison.
func (r A1Result) String() string {
	var b strings.Builder
	b.WriteString("A1 number-feature association strategies\n")
	fmt.Fprintf(&b, "%-16s %10s %10s\n", "Strategy", "Precision", "Recall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %9.1f%% %9.1f%%\n", row.Strategy, 100*row.Overall.Precision(), 100*row.Overall.Recall())
	}
	return b.String()
}

// A2Result sweeps ID3 feature-extraction options on the smoking task.
type A2Result struct {
	Rows []A2Row
}

// A2Row is one option configuration's CV accuracy.
type A2Row struct {
	Name     string
	Accuracy float64
	MinFeat  int
	MaxFeat  int
}

// RunA2 evaluates the §3.3 option grid the paper discusses: the
// recommended configuration, lemma off, head-only on, and single-POS
// variants.
func RunA2(recs []records.Record, seed int64) A2Result {
	field := core.SmokingField()
	configs := []struct {
		name string
		opts id3.FeatureOptions
	}{
		{"all POS, lemma on (paper)", id3.DefaultOptions()},
		{"all POS, lemma off", func() id3.FeatureOptions { o := id3.DefaultOptions(); o.UseLemma = false; return o }()},
		{"all POS, head-only on", func() id3.FeatureOptions { o := id3.DefaultOptions(); o.HeadOnly = true; return o }()},
		{"verbs only", id3.FeatureOptions{Verbs: true, UseLemma: true}},
		{"nouns only", id3.FeatureOptions{Nouns: true, UseLemma: true}},
		{"adverbs only", id3.FeatureOptions{Adverbs: true, UseLemma: true}},
	}
	var res A2Result
	for _, cfg := range configs {
		f := field
		f.Options = cfg.opts
		cv := f.CrossValidate(recs, 5, 10, seed)
		res.Rows = append(res.Rows, A2Row{Name: cfg.name, Accuracy: cv.Accuracy, MinFeat: cv.MinFeatures, MaxFeat: cv.MaxFeatures})
	}
	return res
}

// String renders the option sweep.
func (r A2Result) String() string {
	var b strings.Builder
	b.WriteString("A2 ID3 feature-extraction options (smoking)\n")
	fmt.Fprintf(&b, "%-28s %10s %10s\n", "Configuration", "Accuracy", "Features")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %9.1f%% %7d–%d\n", row.Name, 100*row.Accuracy, row.MinFeat, row.MaxFeat)
	}
	return b.String()
}

// A3Result compares the alcohol field with and without numeric Boolean
// threshold features.
type A3Result struct {
	Plain   float64
	Numeric float64
}

// RunA3 evaluates the paper's proposed numeric Boolean features.
func RunA3(recs []records.Record, seed int64) A3Result {
	return A3Result{
		Plain:   core.AlcoholField(false).CrossValidate(recs, 5, 10, seed).Accuracy,
		Numeric: core.AlcoholField(true).CrossValidate(recs, 5, 10, seed).Accuracy,
	}
}

// String renders the comparison.
func (r A3Result) String() string {
	return fmt.Sprintf("A3 alcohol use (numeric Boolean features)\nword features only:      %.1f%%\nwith numeric thresholds: %.1f%%\n",
		100*r.Plain, 100*r.Numeric)
}

// A4Result sweeps ontology coverage against term-extraction scores.
type A4Result struct {
	Rows []A4Row
}

// A4Row is one coverage level.
type A4Row struct {
	Coverage float64
	Medical  PR // predefined + other combined, micro
	Surgical PR
}

// RunA4 reproduces the paper's error analysis ("false positives are
// mainly caused by the incompleteness of domain ontology") as a coverage
// sweep.
func RunA4(recs []records.Record, coverages []float64) (A4Result, error) {
	var res A4Result
	for _, cov := range coverages {
		ont, err := ontology.New(ontology.Options{Coverage: cov})
		if err != nil {
			return res, err
		}
		e2 := RunE2(recs, ont, true)
		var med, surg PR
		med.Add(e2.PreMedical.ETrue+e2.OtherMedical.ETrue, e2.PreMedical.ETotal+e2.OtherMedical.ETotal, e2.PreMedical.TInst+e2.OtherMedical.TInst)
		surg.Add(e2.PreSurgical.ETrue+e2.OtherSurgical.ETrue, e2.PreSurgical.ETotal+e2.OtherSurgical.ETotal, e2.PreSurgical.TInst+e2.OtherSurgical.TInst)
		res.Rows = append(res.Rows, A4Row{Coverage: cov, Medical: med, Surgical: surg})
	}
	return res, nil
}

// String renders the sweep.
func (r A4Result) String() string {
	var b strings.Builder
	b.WriteString("A4 ontology coverage sweep (synonym resolution on)\n")
	fmt.Fprintf(&b, "%-10s %22s %22s\n", "Coverage", "Medical P/R", "Surgical P/R")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10.0f%% %10.1f%%/%6.1f%% %10.1f%%/%6.1f%%\n",
			100*row.Coverage,
			100*row.Medical.Precision(), 100*row.Medical.Recall(),
			100*row.Surgical.Precision(), 100*row.Surgical.Recall())
	}
	return b.String()
}

// A5Result sweeps writing-style diversity against all three extractors.
type A5Result struct {
	Rows []A5Row
}

// A5Row is one diversity level.
type A5Row struct {
	Diversity  float64
	NumericP   float64
	NumericR   float64
	SmokingAcc float64
}

// RunA5 tests the paper's prediction that "when more diversified writing
// styles are introduced into patient records, the performance of the
// extraction process may be degraded".
func RunA5(diversities []float64, n int, seed int64) A5Result {
	var res A5Result
	for _, d := range diversities {
		opts := records.DefaultGenOptions()
		opts.N = n
		opts.StyleDiversity = d
		recs := records.Generate(opts)
		e1 := RunE1(recs, core.LinkGrammar)
		e3 := RunE3(recs, seed)
		res.Rows = append(res.Rows, A5Row{
			Diversity:  d,
			NumericP:   e1.Overall.Precision(),
			NumericR:   e1.Overall.Recall(),
			SmokingAcc: e3.Accuracy,
		})
	}
	return res
}

// String renders the sweep.
func (r A5Result) String() string {
	var b strings.Builder
	b.WriteString("A5 writing-style diversity sweep\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "Diversity", "Numeric P", "Numeric R", "Smoking acc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10.2f %11.1f%% %11.1f%% %11.1f%%\n",
			row.Diversity, 100*row.NumericP, 100*row.NumericR, 100*row.SmokingAcc)
	}
	return b.String()
}

// E4Result covers the paper's unfinished categorical fields: the binary
// attributes plus shape, each cross-validated with the §5 protocol.
type E4Result struct {
	Rows []E4Row
}

// E4Row is one categorical field's CV outcome.
type E4Row struct {
	Attr     string
	Classes  int
	Accuracy float64
	MinFeat  int
	MaxFeat  int
}

// RunE4 cross-validates the categorical fields the paper did not finish,
// on a selectable backend (nil = the ID3 default).
func RunE4(recs []records.Record, seed int64, b classify.Backend) E4Result {
	var res E4Result
	for _, f := range []core.CategoricalField{
		core.FamilyBCField(),
		core.DrugUseField(),
		core.ShapeField(),
		core.AlcoholField(true),
	} {
		cv := f.WithBackend(b).CrossValidate(recs, 5, 10, seed)
		res.Rows = append(res.Rows, E4Row{
			Attr:     f.Attr,
			Classes:  len(cv.PerClass),
			Accuracy: cv.Accuracy,
			MinFeat:  cv.MinFeatures,
			MaxFeat:  cv.MaxFeatures,
		})
	}
	return res
}

// String renders the categorical-field table.
func (r E4Result) String() string {
	var b strings.Builder
	b.WriteString("E4 remaining categorical fields (paper future work)\n")
	fmt.Fprintf(&b, "%-24s %8s %10s %10s\n", "Attribute", "Classes", "Accuracy", "Features")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %8d %9.1f%% %7d–%d\n", row.Attr, row.Classes, 100*row.Accuracy, row.MinFeat, row.MaxFeat)
	}
	return b.String()
}

// RunE5 measures medication-list extraction (the Medications section of
// the appendix records), an attribute the paper's task list includes in
// its "four numeric multi-valued medical terms".
func RunE5(recs []records.Record, ont *ontology.Ontology) PR {
	sys := &core.System{
		Numeric: core.NewNumericExtractor(core.LinkGrammar),
		Terms:   &core.TermExtractor{Ont: ont, ResolveSynonyms: true},
	}
	var pr PR
	exs := sys.ProcessAll(recs, 0)
	for i, r := range recs {
		pr.AddSets(exs[i].Medications, r.Gold.Medications)
	}
	return pr
}

// A6Result compares split criteria under the identical CV protocol,
// testing the paper's claim that "the ID3 decision tree is supposed to
// use less features than other decision tree algorithms".
type A6Result struct {
	ID3  classify.CVResult
	Gini classify.CVResult
}

// RunA6 cross-validates the smoking field with information gain (ID3)
// and Gini impurity (CART-style) splits, through the backend interface.
func RunA6(recs []records.Record, seed int64) A6Result {
	exs := core.SmokingField().Examples(recs)
	return A6Result{
		ID3:  classify.CrossValidate(classify.ID3{}, exs, 5, 10, seed),
		Gini: classify.CrossValidate(classify.Gini{}, exs, 5, 10, seed),
	}
}

// String renders the criterion comparison.
func (r A6Result) String() string {
	return fmt.Sprintf("A6 split criterion (smoking)\n%-18s accuracy %.1f%%, features %d–%d\n%-18s accuracy %.1f%%, features %d–%d\n",
		"ID3 (info gain)", 100*r.ID3.Accuracy, r.ID3.MinFeatures, r.ID3.MaxFeatures,
		"Gini (CART)", 100*r.Gini.Accuracy, r.Gini.MinFeatures, r.Gini.MaxFeatures)
}

// A7Result measures the negation-filter extension on Table 1.
type A7Result struct {
	Baseline E2Result // the paper's system (no negation handling)
	Filtered E2Result // with the NegEx-style scope filter
}

// RunA7 reruns Table 1 with and without negation filtering (synonym
// resolution on in both, isolating the negation effect).
func RunA7(recs []records.Record, ont *ontology.Ontology) A7Result {
	res := A7Result{Baseline: RunE2(recs, ont, true)}
	sys := &core.System{
		Numeric: core.NewNumericExtractor(core.LinkGrammar),
		Terms:   &core.TermExtractor{Ont: ont, ResolveSynonyms: true, FilterNegated: true},
	}
	res.Filtered = E2Result{ResolveSynonyms: true}
	exs := sys.ProcessAll(recs, 0)
	for i, r := range recs {
		ex := exs[i]
		goldPreM, goldOtherM := records.SplitPredefined(r.Gold.PastMedical, ontology.PredefinedMedical)
		goldPreS, goldOtherS := records.SplitPredefined(r.Gold.PastSurgical, ontology.PredefinedSurgical)
		res.Filtered.PreMedical.AddSets(ex.PreMedical, goldPreM)
		res.Filtered.OtherMedical.AddSets(ex.OtherMedical, goldOtherM)
		res.Filtered.PreSurgical.AddSets(ex.PreSurgical, goldPreS)
		res.Filtered.OtherSurgical.AddSets(ex.OtherSurgical, goldOtherS)
	}
	return res
}

// String renders the negation comparison.
func (r A7Result) String() string {
	return fmt.Sprintf("A7 negation filtering (synonym resolution on)\n%-22s other-medical %s | other-surgical %s\n%-22s other-medical %s | other-surgical %s\n",
		"no negation handling", r.Baseline.OtherMedical, r.Baseline.OtherSurgical,
		"NegEx-style filter", r.Filtered.OtherMedical, r.Filtered.OtherSurgical)
}

// A8Result compares every registered classification backend on the
// smoking attribute under the identical CV protocol: the
// accuracy/capacity side of the accuracy/throughput dial the pluggable
// backend layer exposes (the throughput side is benchmarked in
// BenchmarkClassify*/BenchmarkTrain*).
type A8Result struct {
	Rows []classify.CVResult
}

// RunA8 cross-validates each registered backend on the smoking field.
func RunA8(recs []records.Record, seed int64) (A8Result, error) {
	field := core.SmokingField()
	var res A8Result
	for _, name := range classify.Names() {
		b, err := classify.New(name)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, field.WithBackend(b).CrossValidate(recs, 5, 10, seed))
	}
	return res, nil
}

// String renders the backend comparison.
func (r A8Result) String() string {
	var b strings.Builder
	b.WriteString("A8 classification backends (smoking)\n")
	fmt.Fprintf(&b, "%-10s %10s %8s %12s\n", "Backend", "Accuracy", "±", "Model size")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.1f%% %7.1f%% %8d–%d\n",
			row.Backend, 100*row.Accuracy, 100*row.StdDev, row.MinFeatures, row.MaxFeatures)
	}
	return b.String()
}
