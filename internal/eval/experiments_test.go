package eval

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/records"
)

func corpus(t *testing.T) []records.Record {
	t.Helper()
	return records.Generate(records.DefaultGenOptions())
}

func TestRunE1Paper(t *testing.T) {
	res := RunE1(corpus(t), core.LinkGrammar)
	if res.Overall.Precision() != 1 || res.Overall.Recall() != 1 {
		t.Errorf("E1 should be 100%% on the canonical corpus: %v", res.Overall)
	}
	out := res.String()
	for _, attr := range records.NumericAttrs {
		if !strings.Contains(out, attr) {
			t.Errorf("E1 report missing %q:\n%s", attr, out)
		}
	}
}

func TestRunE2Table1Shape(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	res := RunE2(corpus(t), ont, false)
	// Table 1's ordering: predefined medical strongest, predefined
	// surgical recall weakest.
	if res.PreMedical.Recall() <= res.PreSurgical.Recall() {
		t.Errorf("predefined surgical recall (%v) should trail predefined medical (%v)",
			res.PreSurgical, res.PreMedical)
	}
	if res.PreSurgical.Recall() > 0.65 {
		t.Errorf("predefined surgical recall too high for paper regime: %v", res.PreSurgical)
	}
	if !strings.Contains(res.String(), "Predefined Past Surgical History") {
		t.Error("E2 report malformed")
	}
}

func TestRunE3Paper(t *testing.T) {
	res := RunE3(corpus(t), 1)
	if res.Accuracy < 0.85 {
		t.Errorf("E3 accuracy %.1f%%, want ≥85%%", 100*res.Accuracy)
	}
	// The paper: trees use 4–7 features.
	if res.MinFeatures < 2 || res.MaxFeatures > 12 {
		t.Errorf("tree feature range %d–%d", res.MinFeatures, res.MaxFeatures)
	}
}

func TestRunA1StrategyOrdering(t *testing.T) {
	// On a style-diverse corpus link grammar must beat pattern-only.
	opts := records.DefaultGenOptions()
	opts.StyleDiversity = 0.8
	recs := records.Generate(opts)
	res := RunA1(recs)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var lg, pat A1Row
	for _, row := range res.Rows {
		switch row.Strategy {
		case core.LinkGrammar:
			lg = row
		case core.PatternOnly:
			pat = row
		}
	}
	t.Logf("link-grammar %v | pattern-only %v", lg.Overall, pat.Overall)
	if lg.Overall.Recall() < pat.Overall.Recall() {
		t.Errorf("link grammar recall (%v) below pattern-only (%v) on diverse corpus",
			lg.Overall.Recall(), pat.Overall.Recall())
	}
	if !strings.Contains(res.String(), "link-grammar") {
		t.Error("A1 report malformed")
	}
}

func TestRunA2OptionsSweep(t *testing.T) {
	res := RunA2(corpus(t), 1)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]A2Row{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	paper := byName["all POS, lemma on (paper)"]
	if paper.Accuracy < 0.85 {
		t.Errorf("paper config accuracy %.1f%%", 100*paper.Accuracy)
	}
	t.Log("\n" + res.String())
}

func TestRunA3NumericFeatures(t *testing.T) {
	res := RunA3(corpus(t), 1)
	if res.Numeric < res.Plain {
		t.Errorf("numeric features hurt: %.3f → %.3f", res.Plain, res.Numeric)
	}
	if res.Numeric < 0.85 {
		t.Errorf("with numeric thresholds alcohol should be near-perfect: %.3f", res.Numeric)
	}
}

func TestRunA4CoverageMonotone(t *testing.T) {
	res, err := RunA4(corpus(t), []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	lo, hi := res.Rows[0], res.Rows[1]
	if hi.Medical.Recall() < lo.Medical.Recall() {
		t.Errorf("medical recall should not degrade with more coverage: %.3f → %.3f",
			lo.Medical.Recall(), hi.Medical.Recall())
	}
	t.Log("\n" + res.String())
}

func TestRunE5Medications(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	pr := RunE5(corpus(t), ont)
	if pr.Precision() < 0.95 || pr.Recall() < 0.9 {
		t.Errorf("medication extraction should be near-perfect on canonical corpus: %v", pr)
	}
}

func TestRunA6CriterionComparison(t *testing.T) {
	res := RunA6(corpus(t), 1)
	if res.ID3.Accuracy <= 0 || res.Gini.Accuracy <= 0 {
		t.Fatalf("degenerate accuracies: %+v", res)
	}
	// The paper's claim: ID3 should not need more features than other
	// criteria (allow a small tolerance for fold noise).
	if res.ID3.MaxFeatures > res.Gini.MaxFeatures+2 {
		t.Errorf("ID3 max features %d ≫ Gini %d", res.ID3.MaxFeatures, res.Gini.MaxFeatures)
	}
	if !strings.Contains(res.String(), "info gain") {
		t.Error("A6 report malformed")
	}
}

func TestRunA7NegationImprovesPrecision(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	res := RunA7(corpus(t), ont)
	if res.Filtered.OtherMedical.Precision() < res.Baseline.OtherMedical.Precision() {
		t.Errorf("negation filter should raise other-medical precision: %.3f → %.3f",
			res.Baseline.OtherMedical.Precision(), res.Filtered.OtherMedical.Precision())
	}
	if res.Filtered.OtherMedical.Recall() < res.Baseline.OtherMedical.Recall()-1e-9 {
		t.Errorf("negation filter must not cost recall: %.3f → %.3f",
			res.Baseline.OtherMedical.Recall(), res.Filtered.OtherMedical.Recall())
	}
	if !strings.Contains(res.String(), "NegEx-style") {
		t.Error("A7 report malformed")
	}
}

func TestRunA5DiversityDegrades(t *testing.T) {
	res := RunA5([]float64{0, 0.8}, 50, 1)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, diverse := res.Rows[0], res.Rows[1]
	if base.NumericR != 1 {
		t.Errorf("diversity 0 numeric recall = %.3f, want 1", base.NumericR)
	}
	if diverse.NumericR >= base.NumericR {
		t.Errorf("diversity should reduce numeric recall: %.3f → %.3f", base.NumericR, diverse.NumericR)
	}
	t.Log("\n" + res.String())
}
