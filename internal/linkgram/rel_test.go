package linkgram

import (
	"testing"

	"repro/internal/pos"
	"repro/internal/textproc"
)

func TestRelativeClause(t *testing.T) {
	sents := textproc.SplitSentences("Ms. 2 is a 50-year-old woman who underwent a screening mammogram.")
	lk, err := Parse(pos.TagSentence(sents[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !hasLink(lk, "R", "woman", "who") {
		t.Errorf("missing R(woman, who): %s", lk)
	}
	if !hasLink(lk, "S", "who", "underwent") {
		t.Errorf("missing S(who, underwent): %s", lk)
	}
	if !hasLink(lk, "O", "underwent", "mammogram") {
		t.Errorf("missing O(underwent, mammogram): %s", lk)
	}
}

func TestIdiomAsWellAs(t *testing.T) {
	sents := textproc.SplitSentences("The mammogram revealed a solid lesion as well as an abnormal calcification.")
	lk, err := Parse(pos.TagSentence(sents[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The idiom must be one parse word bridging the two conjuncts.
	if !hasLink(lk, "CO", "lesion", "as well as") {
		t.Errorf("missing CO(lesion, as well as): %s", lk)
	}
	if !hasLink(lk, "CC", "as well as", "calcification") {
		t.Errorf("missing CC(as well as, calcification): %s", lk)
	}
}

func TestHPIFullSentenceParses(t *testing.T) {
	texts := []string{
		"Ms. 2 is a 50-year-old woman who underwent a screening mammogram, revealing a solid lesion as well as an abnormal calcification.",
		"She was referred for further management.",
		"Her breast history is negative for any previous biopsies or masses.",
		"Mother with breast cancer, diagnosed at age 52.",
	}
	for _, text := range texts {
		sents := textproc.SplitSentences(text)
		lk, err := Parse(pos.TagSentence(sents[0]))
		if err != nil {
			t.Errorf("no linkage for %q: %v", text, err)
			continue
		}
		verifyLinkageInvariants(t, text, lk)
	}
}

func TestMatchIdiomBoundary(t *testing.T) {
	sents := textproc.SplitSentences("She is doing well.")
	// "well" alone is not the idiom; the sentence must still parse or
	// fail gracefully, never panic.
	_, _ = Parse(pos.TagSentence(sents[0]))
}
