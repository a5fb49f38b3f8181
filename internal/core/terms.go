package core

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/pos"
	"repro/internal/textproc"
)

// TermExtractor extracts multi-word medical terms from history sections
// using the paper's §3.2 method: POS-tag each sentence, propose candidate
// spans with the ordered patterns JJ NN NN / NN NN / JJ NN / NN,
// normalize, and accept candidates found in the ontology.
type TermExtractor struct {
	Ont *ontology.Ontology
	// ResolveSynonyms controls predefined-attribute assignment: when
	// true, any surface form of a predefined concept counts as
	// predefined; when false (the paper's evaluated configuration — "this
	// problem can be solved by introducing synonyms"), only surfaces that
	// normalize to the predefined name itself do.
	ResolveSynonyms bool
	// FilterNegated drops terms inside a negation scope ("No history of
	// stroke."). The paper's system lacks this, so it defaults off; the
	// A7 ablation measures the precision it buys.
	FilterNegated bool

	// preSets caches compiled predefined-name sets keyed by list
	// content, so repeated records against the same predefined list
	// (the normal pipeline shape) don't re-normalize and re-look-up
	// every name per record.
	preSets sync.Map // string (joined names) → *predefinedSet
}

// predefinedSet is a compiled predefined-name list: the normalized
// surface forms and (for synonym resolution) the CUIs they resolve to.
type predefinedSet struct {
	norm map[string]bool
	cui  map[string]bool
}

var emptyPredefined = &predefinedSet{}

// predefined returns the compiled set for a predefined-name list,
// building and caching it on first use. The key is the list's content
// (names joined on an unprintable separator), so reused or rebuilt
// backing arrays can never serve a stale set.
func (x *TermExtractor) predefined(names []string) *predefinedSet {
	if len(names) == 0 {
		return emptyPredefined
	}
	key := strings.Join(names, "\x1f")
	if v, ok := x.preSets.Load(key); ok {
		return v.(*predefinedSet)
	}
	s := &predefinedSet{norm: map[string]bool{}, cui: map[string]bool{}}
	for _, p := range names {
		s.norm[lexicon.Normalize(p)] = true
		if c := x.Ont.Lookup(p); c != nil {
			s.cui[c.CUI] = true
		}
	}
	v, _ := x.preSets.LoadOrStore(key, s)
	return v.(*predefinedSet)
}

// ExtractedTerm is one ontology-confirmed term.
type ExtractedTerm struct {
	Surface    string // the words as they appear in the text
	Concept    *ontology.Concept
	Predefined bool
}

// termPatterns are the paper's ordered POS patterns, longest first so
// multi-word terms are not fragmented.
var termPatterns = [][]func(pos.Tag) bool{
	{isJJ, isNN, isNN},
	{isNN, isNN},
	{isJJ, isNN},
	{isNN},
}

func isJJ(t pos.Tag) bool { return t.IsAdjective() }
func isNN(t pos.Tag) bool { return t.IsNoun() }

// ExtractSection finds the medical terms of an analyzed Document section
// and classifies each as predefined or other against the given
// predefined name list. It consumes the section's cached POS tagging:
// each sentence is tagged at most once per Document regardless of how
// many extractors read it.
func (x *TermExtractor) ExtractSection(sec *textproc.DocSection, predefined []string) []ExtractedTerm {
	pre := x.predefined(predefined)
	var out []ExtractedTerm
	seen := map[string]bool{}
	var wordBuf [4]string // candidate-word scratch; longest pattern is 3
	for si, sent := range sec.Sentences() {
		tagged := pos.TagSection(sec, si)
		negFrom := 1 << 30
		if x.FilterNegated {
			negFrom = negationStart(sent)
		}
		i := 0
		for i < len(tagged) {
			term, span := x.matchAt(tagged, i, wordBuf[:0])
			if term == nil {
				i++
				continue
			}
			if i >= negFrom {
				i += span
				continue
			}
			norm := lexicon.Normalize(term.Surface)
			if !seen[norm] {
				seen[norm] = true
				if x.ResolveSynonyms {
					term.Predefined = pre.cui[term.Concept.CUI]
				} else {
					term.Predefined = pre.norm[norm]
				}
				out = append(out, *term)
			}
			i += span
		}
	}
	return out
}

// matchAt tries the ordered patterns at token index i; on an ontology
// hit it returns the term and the token span consumed. words is caller
// scratch reused across candidate positions, so the per-candidate probe
// allocates nothing.
func (x *TermExtractor) matchAt(tagged []pos.TaggedToken, i int, words []string) (*ExtractedTerm, int) {
	for _, pat := range termPatterns {
		if i+len(pat) > len(tagged) {
			continue
		}
		words = words[:0]
		ok := true
		for j, test := range pat {
			t := tagged[i+j]
			if t.Kind != textproc.Word || !test(t.Tag) {
				ok = false
				break
			}
			words = append(words, t.Lower())
		}
		if !ok {
			continue
		}
		if c := x.Ont.LookupWords(words); c != nil {
			surface := ""
			for j := range words {
				if j > 0 {
					surface += " "
				}
				surface += tagged[i+j].Text
			}
			return &ExtractedTerm{Surface: surface, Concept: c}, len(pat)
		}
	}
	return nil, 0
}

// SplitTerms partitions extracted terms into predefined and other name
// lists (the four medical-term attributes of the evaluation). Both are
// reported by concept preferred name — the CUI the ontology lookup
// resolved — deduplicated and sorted.
func SplitTerms(terms []ExtractedTerm) (pre, other []string) {
	seenPre := map[string]bool{}
	seenOther := map[string]bool{}
	for _, t := range terms {
		name := t.Concept.Preferred
		if t.Predefined {
			if !seenPre[name] {
				seenPre[name] = true
				pre = append(pre, name)
			}
		} else if !seenOther[name] {
			seenOther[name] = true
			other = append(other, name)
		}
	}
	sort.Strings(pre)
	sort.Strings(other)
	return pre, other
}
