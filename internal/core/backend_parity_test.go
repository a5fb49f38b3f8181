package core

import (
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/id3"
	"repro/internal/records"
	"repro/internal/textproc"
)

// The parity tests pin the refactor's central promise: routing the
// decision trees through the classify.Backend interface changes NOTHING
// about their numbers. Both harnesses consume the same shuffle stream
// from the same seed, split folds the same way, and aggregate
// identically, so every field of the result — accuracy, per-round
// stddev, feature-count range, per-class metrics, the full confusion
// matrix — must be equal to the last bit.

// id3Examples converts the interface-shaped examples back to the raw
// id3 shape, sharing the underlying feature maps.
func id3Examples(exs []classify.Example) []id3.Example {
	out := make([]id3.Example, len(exs))
	for i, e := range exs {
		out[i] = id3.Example{Features: e.Features(), Class: e.Class}
	}
	return out
}

func TestBackendParityID3(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	exs := SmokingField().Examples(recs)

	got := classify.CrossValidate(classify.ID3{}, exs, 5, 10, 7)
	want := id3.CrossValidate(id3Examples(exs), 5, 10, 7)
	assertParity(t, got, want)
}

func TestBackendParityGini(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	exs := SmokingField().Examples(recs)

	got := classify.CrossValidate(classify.Gini{}, exs, 5, 10, 7)
	want := id3.CrossValidateWith(id3Examples(exs), 5, 10, 7, id3.TrainGini)
	assertParity(t, got, want)
}

func assertParity(t *testing.T, got classify.CVResult, want id3.CVResult) {
	t.Helper()
	if got.Accuracy != want.Accuracy {
		t.Errorf("accuracy %v != %v (must be bit-identical)", got.Accuracy, want.Accuracy)
	}
	if got.StdDev != want.StdDev {
		t.Errorf("stddev %v != %v (must be bit-identical)", got.StdDev, want.StdDev)
	}
	if got.MinFeatures != want.MinFeatures || got.MaxFeatures != want.MaxFeatures {
		t.Errorf("model size %d–%d != features %d–%d",
			got.MinFeatures, got.MaxFeatures, want.MinFeatures, want.MaxFeatures)
	}
	if got.Rounds != want.Rounds || got.Folds != want.Folds {
		t.Errorf("protocol %d×%d != %d×%d", got.Rounds, got.Folds, want.Rounds, want.Folds)
	}
	if !reflect.DeepEqual(got.Confusion, want.Confusion) {
		t.Errorf("confusion matrices differ:\n%v\n%v", got.Confusion, want.Confusion)
	}
	wantPC := map[string]classify.ClassMetrics{}
	for c, m := range want.PerClass {
		wantPC[c] = classify.ClassMetrics{Precision: m.Precision, Recall: m.Recall, Support: m.Support}
	}
	if !reflect.DeepEqual(got.PerClass, wantPC) {
		t.Errorf("per-class metrics differ:\n%v\n%v", got.PerClass, wantPC)
	}
}

// TestTrainCategoricalBackendDefault pins that a nil Backend still means
// the paper's ID3 trees, so pre-refactor callers are unaffected.
func TestTrainCategoricalBackendDefault(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	c := TrainCategorical(SmokingField(), recs)
	if c.Backend() != "id3" {
		t.Errorf("default backend = %q, want id3", c.Backend())
	}

	exs := id3Examples(SmokingField().Examples(recs))
	tree := id3.Train(exs)
	for _, r := range recs {
		if r.Gold.Smoking == "" {
			continue
		}
		want := tree.Classify(SmokingField().Features(textproc.Analyze(r.Text)))
		if got := c.ClassifyDoc(textproc.Analyze(r.Text)); got != want {
			t.Errorf("record %d: interface path predicted %q, direct tree %q", r.ID, got, want)
		}
	}
}
