package pos

import (
	"testing"

	"repro/internal/textproc"
)

func tagOne(t *testing.T, text string) []TaggedToken {
	t.Helper()
	sents := textproc.SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("want 1 sentence for %q, got %d", text, len(sents))
	}
	return TagSentence(sents[0])
}

func findTag(toks []TaggedToken, word string) (Tag, bool) {
	for _, tok := range toks {
		if tok.Lower() == word {
			return tok.Tag, true
		}
	}
	return "", false
}

func TestTagVitalsSentence(t *testing.T) {
	toks := tagOne(t, "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")
	want := map[string]Tag{
		"blood": NN, "pressure": NN, "is": VBZ, "144/90": CD,
		"pulse": NN, "of": IN, "temperature": NN, "and": CC,
		"weight": NN, "pounds": NNS,
	}
	for w, wantTag := range want {
		got, ok := findTag(toks, w)
		if !ok {
			t.Errorf("word %q not found", w)
			continue
		}
		if got != wantTag {
			t.Errorf("tag(%q) = %v, want %v", w, got, wantTag)
		}
	}
}

func TestTagMedicalHistorySentence(t *testing.T) {
	toks := tagOne(t, "Significant for a postoperative CVA after undergoing a cholecystectomy and a midline hernia closure.")
	want := map[string]Tag{
		"significant":     JJ,
		"postoperative":   JJ,
		"cva":             NN,
		"cholecystectomy": NN,
		"midline":         JJ,
		"hernia":          NN,
		"closure":         NN,
	}
	for w, wantTag := range want {
		got, ok := findTag(toks, w)
		if !ok {
			t.Errorf("word %q not found", w)
			continue
		}
		if got != wantTag {
			t.Errorf("tag(%q) = %v, want %v", w, got, wantTag)
		}
	}
}

func TestTagSmokingSentences(t *testing.T) {
	toks := tagOne(t, "She quit smoking five years ago.")
	if tag, _ := findTag(toks, "she"); tag != PRP {
		t.Errorf("she = %v", tag)
	}
	if tag, _ := findTag(toks, "quit"); !tag.IsVerb() {
		t.Errorf("quit = %v, want verb", tag)
	}
	if tag, _ := findTag(toks, "never"); tag != "" {
		t.Errorf("never should be absent")
	}

	toks = tagOne(t, "She has never smoked.")
	if tag, _ := findTag(toks, "never"); tag != RB {
		t.Errorf("never = %v, want RB", tag)
	}
	if tag, _ := findTag(toks, "smoked"); tag != VBN && tag != VBD {
		t.Errorf("smoked = %v, want VBN/VBD", tag)
	}
}

func TestTagUnknownMedicalSuffixes(t *testing.T) {
	cases := map[string]Tag{
		"thoracotomy":    NN,  // -otomy
		"dermatitis":     NN,  // -itis
		"xanthelasma":    NN,  // default noun
		"spondylosis":    NN,  // -osis
		"adenocarcinoma": NN,  // -oma
		"hyperlipidemia": NN,  // -emia
		"slowly":         RB,  // -ly
		"resectable":     JJ,  // -able
		"calcifications": NNS, // -s plural
	}
	for w, want := range cases {
		if got := tagOne(t, w)[0].Tag; got != want {
			t.Errorf("suffixTag(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagScreeningMammogram(t *testing.T) {
	toks := tagOne(t, "She underwent a screening mammogram.")
	if tag, _ := findTag(toks, "screening"); tag != JJ {
		t.Errorf("screening = %v, want JJ (modifier before noun)", tag)
	}
	if tag, _ := findTag(toks, "underwent"); tag != VBD {
		t.Errorf("underwent = %v, want VBD", tag)
	}
}

func TestTagWordsNumbers(t *testing.T) {
	toks := tagOne(t, "pulse of 84")
	if tag := toks[2].Tag; tag != CD {
		t.Errorf("84 = %v, want CD", tag)
	}
}

func TestTagProperNouns(t *testing.T) {
	toks := tagOne(t, "Medications include Lipitor and Zoloft.")
	if tag, _ := findTag(toks, "lipitor"); tag != NNP {
		t.Errorf("Lipitor = %v, want NNP", tag)
	}
}

func TestTagHelpers(t *testing.T) {
	if !NN.IsNoun() || !NNS.IsNoun() || !NNP.IsNoun() {
		t.Error("noun helpers")
	}
	if NN.IsVerb() || !VBD.IsVerb() || !VBG.IsVerb() {
		t.Error("verb helpers")
	}
	if !JJ.IsAdjective() || JJ.IsAdverb() || !RB.IsAdverb() {
		t.Error("adj/adv helpers")
	}
}
