// Package textproc provides the low-level text processing pipeline used by
// the clinical information extraction system: tokenization, sentence
// splitting, section splitting of semi-structured records, and number
// annotation (both digit forms like "144/90" and English number words like
// "seventeen").
//
// It is the substitute for the GATE pipeline stages (tokeniser, sentence
// splitter, number NER) used by Zhou et al. (ICDE 2005).
package textproc

import (
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind int

// Token kinds. Word covers alphabetic tokens (including hyphenated medical
// terms); Number covers integer, decimal, ratio ("144/90") and ordinal
// forms; Punct covers single punctuation runes; Symbol covers everything
// else (degree signs, slashes standing alone, etc.).
const (
	Word Kind = iota
	Number
	Punct
	Symbol
)

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	switch k {
	case Word:
		return "Word"
	case Number:
		return "Number"
	case Punct:
		return "Punct"
	case Symbol:
		return "Symbol"
	}
	return "Unknown"
}

// Token is a single lexical unit with its span in the original text.
type Token struct {
	Text  string // the token as it appears in the input
	Kind  Kind
	Start int // byte offset of the first byte in the input
	End   int // byte offset one past the last byte
}

// Lower returns the lower-cased token text.
func (t Token) Lower() string { return strings.ToLower(t.Text) }

// Tokenize splits text into tokens. The tokenizer is tuned for clinical
// dictation: it keeps blood-pressure ratios ("144/90"), decimals ("98.3"),
// hyphenated compounds ("50-year-old"), and abbreviations with internal
// periods ("Dr.") as single tokens, and emits punctuation as separate
// tokens so the sentence splitter can see clause boundaries.
func Tokenize(text string) []Token {
	tokenizePasses.Add(1)
	var toks []Token
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isDigit(c):
			j := scanNumber(text, i)
			toks = append(toks, Token{Text: text[i:j], Kind: Number, Start: i, End: j})
			i = j
		case isAlpha(c):
			j := scanWord(text, i)
			toks = append(toks, Token{Text: text[i:j], Kind: Word, Start: i, End: j})
			i = j
		case isPunct(c):
			toks = append(toks, Token{Text: text[i : i+1], Kind: Punct, Start: i, End: i + 1})
			i++
		default:
			j := i
			for j < n && !isDigit(text[j]) && !isAlpha(text[j]) && !isPunct(text[j]) && !isSpaceByte(text[j]) {
				j++
			}
			if j == i {
				j = i + 1
			}
			toks = append(toks, Token{Text: text[i:j], Kind: Symbol, Start: i, End: j})
			i = j
		}
	}
	return toks
}

// scanNumber consumes a numeric literal starting at i: digits optionally
// followed by a decimal point and more digits, optionally followed by a
// '/' ratio part (blood pressure) or a '-' range part. "144/90", "98.3",
// "1-2" and plain "84" are all single tokens.
func scanNumber(text string, i int) int {
	n := len(text)
	j := i
	for j < n && isDigit(text[j]) {
		j++
	}
	// Decimal part: "98.3" but not "98." at sentence end.
	if j+1 < n && text[j] == '.' && isDigit(text[j+1]) {
		j++
		for j < n && isDigit(text[j]) {
			j++
		}
	}
	// Ratio part: "144/90". Also covers dates written 3/14 in dictation.
	if j+1 < n && text[j] == '/' && isDigit(text[j+1]) {
		j++
		for j < n && isDigit(text[j]) {
			j++
		}
		if j+1 < n && text[j] == '.' && isDigit(text[j+1]) {
			j++
			for j < n && isDigit(text[j]) {
				j++
			}
		}
	}
	// Range part: "1-2" (alcohol use "1-2 day per week").
	if j+1 < n && text[j] == '-' && isDigit(text[j+1]) {
		j++
		for j < n && isDigit(text[j]) {
			j++
		}
	}
	return j
}

// scanWord consumes an alphabetic word starting at i. Hyphenated compounds
// ("50-year-old" is handled by the number scanner for the leading digits;
// "well-developed" here) and apostrophes ("patient's") stay in one token.
func scanWord(text string, i int) int {
	n := len(text)
	j := i
	for j < n {
		c := text[j]
		if isAlpha(c) || isDigit(c) {
			j++
			continue
		}
		// Internal hyphen or apostrophe between letters.
		if (c == '-' || c == '\'') && j+1 < n && isAlpha(text[j+1]) {
			j++
			continue
		}
		break
	}
	return j
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isPunct(c byte) bool {
	switch c {
	case '.', ',', ';', ':', '!', '?', '(', ')', '[', ']', '{', '}', '"', '/', '%', '&', '+', '=', '<', '>', '-', '\'':
		return true
	}
	return false
}

// IsTitleCase reports whether s begins with an upper-case letter followed
// by at least one lower-case letter, the shape of a sentence-initial word
// or a proper name.
func IsTitleCase(s string) bool {
	rs := []rune(s)
	if len(rs) < 2 {
		return false
	}
	return unicode.IsUpper(rs[0]) && unicode.IsLower(rs[1])
}
