package core

import (
	"testing"

	"repro/internal/records"
	"repro/internal/textproc"
)

func TestSmokingFieldExamples(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	f := SmokingField()
	exs := f.Examples(recs)
	// The paper: five subjects lack smoking information; forty-five are
	// evaluated.
	if len(exs) != 45 {
		t.Fatalf("examples = %d, want 45", len(exs))
	}
	counts := map[string]int{}
	for _, e := range exs {
		counts[e.Class]++
	}
	if counts[records.SmokingNever] != 28 || counts[records.SmokingCurrent] != 12 || counts[records.SmokingFormer] != 5 {
		t.Errorf("class counts = %v, want 28/12/5", counts)
	}
}

func TestE3SmokingCrossValidation(t *testing.T) {
	// The paper: 5-fold CV × 10 shuffled rounds, average precision
	// (recall) 92.2%, trees using 4–7 features. Our corpus is synthetic,
	// so we assert the shape: accuracy in the high 80s or better with
	// compact trees.
	recs := records.Generate(records.DefaultGenOptions())
	f := SmokingField()
	res := f.CrossValidate(recs, 5, 10, 1)
	t.Logf("smoking CV: %v", res)
	if res.Accuracy < 0.85 {
		t.Errorf("smoking CV accuracy = %.1f%%, want ≥85%%", 100*res.Accuracy)
	}
	if res.MinFeatures < 2 || res.MaxFeatures > 12 {
		t.Errorf("feature range %d–%d, want compact trees", res.MinFeatures, res.MaxFeatures)
	}
}

func TestTrainAndClassifySmoking(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	clf := TrainCategorical(SmokingField(), recs)
	correct, total := 0, 0
	for _, r := range recs {
		if r.Gold.Smoking == "" {
			continue
		}
		total++
		if clf.ClassifyDoc(textproc.Analyze(r.Text)) == r.Gold.Smoking {
			correct++
		}
	}
	if float64(correct)/float64(total) < 0.95 {
		t.Errorf("training-set accuracy %d/%d too low", correct, total)
	}
}

func TestA3AlcoholNumericFeatures(t *testing.T) {
	// The paper's proposed numeric Boolean features must help the alcohol
	// field, whose classes are defined by numeric thresholds.
	recs := records.Generate(records.DefaultGenOptions())
	plain := AlcoholField(false).CrossValidate(recs, 5, 10, 1)
	numeric := AlcoholField(true).CrossValidate(recs, 5, 10, 1)
	t.Logf("alcohol without numeric features: %.1f%%", 100*plain.Accuracy)
	t.Logf("alcohol with numeric features:    %.1f%%", 100*numeric.Accuracy)
	if numeric.Accuracy < plain.Accuracy {
		t.Errorf("numeric features should not hurt: %.3f → %.3f", plain.Accuracy, numeric.Accuracy)
	}
}

func TestShapeField(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	res := ShapeField().CrossValidate(recs, 5, 5, 1)
	t.Logf("shape CV: %.1f%%", 100*res.Accuracy)
	if res.Accuracy < 0.8 {
		t.Errorf("shape CV accuracy = %.1f%%", 100*res.Accuracy)
	}
}

// TestFieldTextMissingSection: a record without the field's section
// gives the field no text to read, so its instance has no features and
// no tokens.
func TestFieldTextMissingSection(t *testing.T) {
	in := SmokingField().Instance(textproc.Analyze("Chief Complaint:  Pain.\n"))
	if f, tok := in.Features(), in.Tokens(); len(f) != 0 || len(tok) != 0 {
		t.Errorf("instance of a record without Social History = %v / %v, want no features and no tokens", f, tok)
	}
}
