package classify

import (
	"reflect"
	"sync"
	"testing"
)

func TestNamesResolve(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, b.Name())
		}
		if b.Params() == "" {
			t.Errorf("New(%q).Params() is empty", name)
		}
	}
	if _, err := New("nearest-neighbor"); err == nil {
		t.Error("New with an unknown name succeeded, want error")
	}
	if Default().Name() != "id3" {
		t.Errorf("Default().Name() = %q, want id3 (the paper's backend)", Default().Name())
	}
}

func TestInstanceMemoizesViews(t *testing.T) {
	featCalls, tokCalls := 0, 0
	in := NewInstance(
		func() map[string]bool { featCalls++; return map[string]bool{"smoker": true} },
		func() []string { tokCalls++; return []string{"smoker"} },
	)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.Features()
			in.Tokens()
		}()
	}
	wg.Wait()
	if featCalls != 1 || tokCalls != 1 {
		t.Errorf("view constructors ran %d/%d times, want 1/1 (memoized)", featCalls, tokCalls)
	}
	if !in.Features()["smoker"] || in.Tokens()[0] != "smoker" {
		t.Error("memoized views lost their values")
	}
}

func TestInstanceZeroValueAndNilViews(t *testing.T) {
	var zero Instance
	if zero.Features() != nil || zero.Tokens() != nil {
		t.Error("zero Instance should yield nil views")
	}
	onlyFeats := NewInstance(func() map[string]bool { return map[string]bool{"x": true} }, nil)
	if onlyFeats.Tokens() != nil {
		t.Error("nil token constructor should yield nil tokens")
	}
	onlyToks := NewInstance(nil, func() []string { return []string{"x"} })
	if onlyToks.Features() != nil {
		t.Error("nil feature constructor should yield nil features")
	}
}

// featureInstance and tokenInstance build single-view instances.
func featureInstance(features map[string]bool) Instance {
	return NewInstance(func() map[string]bool { return features }, nil)
}

func tokenInstance(tokens []string) Instance {
	return NewInstance(nil, func() []string { return tokens })
}

// treeExamples is a tiny linearly separable feature dataset.
func treeExamples() []Example {
	return []Example{
		{Instance: featureInstance(map[string]bool{"smokes": true, "denies": false}), Class: "current"},
		{Instance: featureInstance(map[string]bool{"smokes": true, "pack": true}), Class: "current"},
		{Instance: featureInstance(map[string]bool{"denies": true}), Class: "never"},
		{Instance: featureInstance(map[string]bool{"denies": true, "tobacco": true}), Class: "never"},
	}
}

func TestTreeBackends(t *testing.T) {
	for _, b := range []Backend{ID3{}, Gini{}} {
		m := b.Train(treeExamples())
		if m.Backend() != b.Name() {
			t.Errorf("%s model reports backend %q", b.Name(), m.Backend())
		}
		if m.Size() < 1 {
			t.Errorf("%s model size = %d, want >= 1", b.Name(), m.Size())
		}
		for _, e := range treeExamples() {
			if got := m.Predict(e.Instance); got != e.Class {
				t.Errorf("%s predicted %q for a training example of class %q", b.Name(), got, e.Class)
			}
		}
	}
}

func tokenExamples() []Example {
	return []Example{
		{Instance: tokenInstance([]string{"she", "smokes", "one", "pack", "per", "day"}), Class: "current"},
		{Instance: tokenInstance([]string{"current", "smoker", "for", "20", "years"}), Class: "current"},
		{Instance: tokenInstance([]string{"she", "denies", "tobacco", "use"}), Class: "never"},
		{Instance: tokenInstance([]string{"never", "a", "smoker"}), Class: "never"},
		{Instance: tokenInstance([]string{"former", "smoker", "quit", "ten", "years", "ago"}), Class: "former"},
		{Instance: tokenInstance([]string{"she", "quit", "smoking", "five", "years", "ago"}), Class: "former"},
	}
}

func TestVectorTrainPredict(t *testing.T) {
	m := NewVector().Train(tokenExamples())
	if m.Backend() != "vector" {
		t.Errorf("model backend = %q", m.Backend())
	}
	if m.Size() < 1 {
		t.Errorf("model size = %d, want >= 1", m.Size())
	}
	for _, e := range tokenExamples() {
		if got := m.Predict(e.Instance); got != e.Class {
			t.Errorf("predicted %q for a training example of class %q", got, e.Class)
		}
	}
	// Held-out paraphrases near each centroid.
	cases := []struct {
		tokens []string
		want   string
	}{
		{[]string{"smokes", "half", "a", "pack", "per", "day"}, "current"},
		{[]string{"denies", "smoking"}, "never"},
		{[]string{"quit", "smoking", "in", "1995"}, "former"},
	}
	for _, c := range cases {
		if got := m.Predict(tokenInstance(c.tokens)); got != c.want {
			t.Errorf("Predict(%v) = %q, want %q", c.tokens, got, c.want)
		}
	}
}

func TestVectorDeterministic(t *testing.T) {
	a := NewVector().Train(tokenExamples())
	b := NewVector().Train(tokenExamples())
	probes := [][]string{
		{"smoker"}, {"tobacco"}, {"quit"}, {"she", "smokes"}, {"denies", "use"},
	}
	for _, p := range probes {
		if ga, gb := a.Predict(tokenInstance(p)), b.Predict(tokenInstance(p)); ga != gb {
			t.Errorf("two identical trainings disagree on %v: %q vs %q", p, ga, gb)
		}
	}
}

func TestVectorDegenerate(t *testing.T) {
	empty := NewVector().Train(nil)
	if got := empty.Predict(tokenInstance([]string{"smoker"})); got != "" {
		t.Errorf("untrained model predicted %q, want \"\"", got)
	}
	if empty.Size() != 0 {
		t.Errorf("untrained model size = %d, want 0", empty.Size())
	}
	m := NewVector().Train(tokenExamples())
	if got := m.Predict(Instance{}); got != "" {
		t.Errorf("predicting an instance with no tokens yielded %q, want \"\"", got)
	}
}

func TestVectorTieBreaksOnFirstSortedLabel(t *testing.T) {
	// Two labels with identical training text: every probe ties, and the
	// sorted-label order must decide deterministically.
	exs := []Example{
		{Instance: tokenInstance([]string{"same", "words"}), Class: "zebra"},
		{Instance: tokenInstance([]string{"same", "words"}), Class: "aardvark"},
	}
	m := NewVector().Train(exs)
	if got := m.Predict(tokenInstance([]string{"same", "words"})); got != "aardvark" {
		t.Errorf("tie broke to %q, want first sorted label \"aardvark\"", got)
	}
}

func TestCrossValidateDegenerate(t *testing.T) {
	if res := CrossValidate(ID3{}, treeExamples(), 1, 10, 7); res.Accuracy != 0 || res.Backend != "id3" {
		t.Errorf("k=1 should yield a zero result tagged with the backend, got %+v", res)
	}
	if res := CrossValidate(NewVector(), tokenExamples()[:2], 5, 10, 7); res.Accuracy != 0 || res.Backend != "vector" {
		t.Errorf("too few examples should yield a zero result, got %+v", res)
	}
}

func TestCrossValidateCountsAndDeterminism(t *testing.T) {
	exs := append(treeExamples(), treeExamples()...) // 8 examples, 2 classes
	a := CrossValidate(ID3{}, exs, 4, 3, 2005)
	b := CrossValidate(ID3{}, exs, 4, 3, 2005)
	if !reflect.DeepEqual(a, b) {
		t.Error("same backend/seed produced different CV results")
	}
	total := 0
	for _, row := range a.Confusion {
		for _, n := range row {
			total += n
		}
	}
	if want := len(exs) * a.Rounds; total != want {
		t.Errorf("confusion total = %d, want examples×rounds = %d", total, want)
	}
	if a.Backend != "id3" || a.Folds != 4 || a.Rounds != 3 {
		t.Errorf("protocol fields drifted: %+v", a)
	}
}
