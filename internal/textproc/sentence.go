package textproc

import "strings"

// Sentence is a contiguous span of tokens forming one sentence, with its
// byte span in the original text.
type Sentence struct {
	Text   string  // the sentence as it appears in the input, trimmed
	Tokens []Token // tokens with offsets relative to the original text
	Start  int     // byte offset of the first token
	End    int     // byte offset one past the last token
}

// abbreviations that end with a period but do not terminate a sentence in
// clinical dictation.
var abbreviations = map[string]bool{
	"dr": true, "mr": true, "mrs": true, "ms": true, "st": true,
	"vs": true, "etc": true, "e.g": true, "i.e": true, "approx": true,
	"no": true, "wt": true, "ht": true, "pt": true, "hx": true,
}

// SplitSentences splits text into sentences. A sentence ends at '.', '!'
// or '?' unless the period follows a known abbreviation or a single
// capital letter (initials such as "S1 S2" never carry periods in the
// corpus, but "Ari D. Brooks" style initials do). Newlines that separate
// list-like fragments also act as sentence boundaries, which matters for
// semi-structured records where fragments like "Blood pressure: 144/78"
// appear one per line.
func SplitSentences(text string) []Sentence {
	toks := Tokenize(text)
	var sents []Sentence
	begin := 0 // index into toks of the first token of the current sentence
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		end := false
		switch {
		case t.Kind == Punct && (t.Text == "!" || t.Text == "?"):
			end = true
		case t.Kind == Punct && t.Text == ".":
			end = !periodIsAbbrev(toks, i)
		case i+1 < len(toks) && hasBlankLineBetween(text, t.End, toks[i+1].Start):
			end = true
		}
		if end {
			sents = appendSentence(sents, text, toks[begin:i+1])
			begin = i + 1
		}
	}
	if begin < len(toks) {
		sents = appendSentence(sents, text, toks[begin:])
	}
	return sents
}

func appendSentence(sents []Sentence, text string, toks []Token) []Sentence {
	if len(toks) == 0 {
		return sents
	}
	start, end := toks[0].Start, toks[len(toks)-1].End
	s := Sentence{
		Text:   strings.TrimSpace(text[start:end]),
		Tokens: toks,
		Start:  start,
		End:    end,
	}
	// A sentence consisting solely of punctuation is noise.
	for _, t := range toks {
		if t.Kind != Punct && t.Kind != Symbol {
			return append(sents, s)
		}
	}
	return sents
}

// periodIsAbbrev reports whether the period at toks[i] is part of an
// abbreviation or an initial rather than a sentence terminator.
func periodIsAbbrev(toks []Token, i int) bool {
	if i == 0 {
		return false
	}
	prev := toks[i-1]
	if prev.Kind != Word {
		return false
	}
	w := strings.ToLower(prev.Text)
	if abbreviations[w] {
		return true
	}
	// Single capital letter: a middle initial ("Ari D. Brooks").
	if len(prev.Text) == 1 && prev.Text[0] >= 'A' && prev.Text[0] <= 'Z' {
		// Only an initial if the next token is a capitalized word.
		if i+1 < len(toks) && toks[i+1].Kind == Word && IsTitleCase(toks[i+1].Text) {
			return true
		}
	}
	return false
}

// hasBlankLineBetween reports whether the text between byte offsets a and b
// contains at least one newline, which separates record lines.
func hasBlankLineBetween(text string, a, b int) bool {
	if a < 0 || b > len(text) || a >= b {
		return false
	}
	return strings.Contains(text[a:b], "\n")
}
