package textproc

import (
	"strings"
	"sync"
)

// Document is an analyzed record: the Figure 2 front of the pipeline
// (section split, then tokenisation and sentence splitting per section)
// computed at most once per section, with per-section token and sentence
// views that every downstream consumer — numeric extraction, term
// extraction, feature extraction for the categorical classifier — shares
// instead of re-running the analysis on the same text.
//
// Section bodies are analyzed lazily on first access and memoized, so a
// record pays only for the sections its extractors actually read, and
// never pays twice. A Document is safe to share across goroutines.
type Document struct {
	Text     string
	Sections []*DocSection
}

// DocSection is one analyzed section: the raw header/body span plus a
// memoized sentence (and therefore token) analysis of its body, and one
// derived-analysis slot per sentence for the layers above tokenization
// (POS tagging, link-grammar parsing).
type DocSection struct {
	Section
	once    sync.Once
	sents   []Sentence
	derived []SentenceDerived
}

// Sentences returns the sentence split of the section body, computing it
// on first call and reusing the result afterwards. Token offsets are
// relative to Body, exactly as SplitSentences(Body) would return them.
func (s *DocSection) Sentences() []Sentence {
	s.once.Do(func() {
		s.sents = SplitSentences(s.Body)
		s.derived = make([]SentenceDerived, len(s.sents))
	})
	return s.sents
}

// Derived returns the derived-analysis slot of sentence i, analyzing the
// section first if needed. The caller must keep i within the sentence
// count.
func (s *DocSection) Derived(i int) *SentenceDerived {
	s.Sentences()
	return &s.derived[i]
}

// SentenceDerived memoizes per-sentence analyses computed by higher
// pipeline layers — POS tags and the link-grammar linkage — which textproc
// cannot name without an import cycle, so the slots hold opaque values.
// pos.TagSection and linkgram.ParseSection are the typed accessors; they
// guarantee each sentence of a shared Document is tagged at most once and
// parsed at most once, for any number of concurrent consumers.
type SentenceDerived struct {
	tagOnce   sync.Once
	tags      any
	parseOnce sync.Once
	parseVal  any
	parseErr  error
}

// Tags returns the memoized POS tagging of the sentence, invoking compute
// on the first call only.
func (d *SentenceDerived) Tags(compute func() any) any {
	d.tagOnce.Do(func() { d.tags = compute() })
	return d.tags
}

// Parse returns the memoized parse of the sentence, invoking compute on
// the first call only. Both outcomes are cached: a successful linkage and
// the no-linkage error, so an unparseable sentence is attempted exactly
// once per Document.
func (d *SentenceDerived) Parse(compute func() (any, error)) (any, error) {
	d.parseOnce.Do(func() { d.parseVal, d.parseErr = compute() })
	return d.parseVal, d.parseErr
}

// Analyze splits a record into sections — one SplitSections pass over the
// whole text — and wraps each in a lazily analyzed DocSection.
func Analyze(text string) *Document {
	secs := SplitSections(text)
	d := &Document{Text: text, Sections: make([]*DocSection, len(secs))}
	for i, s := range secs {
		d.Sections[i] = &DocSection{Section: s}
	}
	return d
}

// Section returns the first section with the given header
// (case-insensitive) and whether it was found.
func (d *Document) Section(header string) (*DocSection, bool) {
	for _, s := range d.Sections {
		if strings.EqualFold(s.Header, header) {
			return s, true
		}
	}
	return nil, false
}
