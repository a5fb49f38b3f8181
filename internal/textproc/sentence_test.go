package textproc

import (
	"strings"
	"testing"
)

func TestSplitSentencesBasic(t *testing.T) {
	text := "She quit smoking five years ago. She is currently a smoker. She has never smoked."
	sents := SplitSentences(text)
	if len(sents) != 3 {
		t.Fatalf("got %d sentences, want 3: %+v", len(sents), sents)
	}
	if !strings.HasPrefix(sents[0].Text, "She quit") {
		t.Errorf("sentence 0 = %q", sents[0].Text)
	}
	if !strings.HasPrefix(sents[2].Text, "She has never") {
		t.Errorf("sentence 2 = %q", sents[2].Text)
	}
}

func TestSplitSentencesAbbreviation(t *testing.T) {
	text := "She was seen by Dr. Brooks today. She will return next week."
	sents := SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("got %d sentences, want 2: %+v", len(sents), sents)
	}
	if !strings.Contains(sents[0].Text, "Brooks") {
		t.Errorf("abbreviation split sentence: %q", sents[0].Text)
	}
}

func TestSplitSentencesInitial(t *testing.T) {
	text := "Records were reviewed by Ari D. Brooks on Monday. No issues were found."
	sents := SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("got %d sentences, want 2: %v", len(sents), sentTexts(sents))
	}
}

func TestSplitSentencesNewlineFragments(t *testing.T) {
	text := "Blood pressure: 142/78\nPulse: 96\nWeight: 211"
	sents := SplitSentences(text)
	if len(sents) != 3 {
		t.Fatalf("got %d sentences, want 3: %v", len(sents), sentTexts(sents))
	}
}

func TestSplitSentencesDecimalNotBoundary(t *testing.T) {
	text := "Temperature of 98.3 was recorded."
	sents := SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("decimal split the sentence: %v", sentTexts(sents))
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Errorf("SplitSentences(\"\") = %v", got)
	}
	if got := SplitSentences("..."); len(got) != 0 {
		t.Errorf("punctuation-only input produced sentences: %v", got)
	}
}

func TestSentenceHelpers(t *testing.T) {
	sents := SplitSentences("She has never smoked.")
	if len(sents) != 1 {
		t.Fatalf("want 1 sentence, got %d", len(sents))
	}
	var ws []string
	for _, tok := range sents[0].Tokens {
		if tok.Kind == Word {
			ws = append(ws, tok.Lower())
		}
	}
	want := []string{"she", "has", "never", "smoked"}
	if len(ws) != len(want) {
		t.Fatalf("words = %v, want %v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("word %d = %q, want %q", i, ws[i], want[i])
		}
	}
}

func sentTexts(sents []Sentence) []string {
	out := make([]string, len(sents))
	for i, s := range sents {
		out[i] = s.Text
	}
	return out
}
