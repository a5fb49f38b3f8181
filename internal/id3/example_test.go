package id3_test

import (
	"fmt"

	"repro/internal/id3"
	"repro/internal/textproc"
)

// Train on the paper's smoking examples and classify a held-out phrasing.
func ExampleTrain() {
	features := func(text string) map[string]bool {
		sec := &textproc.DocSection{Section: textproc.Section{Body: text}}
		return id3.FeaturesFromSection(sec, id3.DefaultOptions())
	}
	examples := []id3.Example{
		{Features: features("She quit smoking five years ago"), Class: "former"},
		{Features: features("She stopped smoking last year"), Class: "former"},
		{Features: features("She is currently a smoker"), Class: "current"},
		{Features: features("Current smoker, one pack per day"), Class: "current"},
		{Features: features("She has never smoked"), Class: "never"},
		{Features: features("Denies tobacco use"), Class: "never"},
	}
	tree := id3.Train(examples)
	probe := features("Patient quit smoking in 1995")
	fmt.Println(tree.Classify(probe))
	// Output: former
}

// The §3.3 lemma option folds inflections into one Boolean feature. A
// bare body is analyzed by wrapping it as a section.
func ExampleFeaturesFromSection() {
	sec := &textproc.DocSection{Section: textproc.Section{Body: "She denies smoking."}}
	feats := id3.FeaturesFromSection(sec, id3.DefaultOptions())
	fmt.Println(feats["deny"])
	// Output: true
}
