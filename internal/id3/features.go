package id3

import (
	"fmt"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/linkgram"
	"repro/internal/pos"
	"repro/internal/textproc"
)

// Constituent is a sentence constituent role, derived from the link
// grammar parse (option 2 of §3.3: "Choose one or multiple sentence
// constituents: subject, verb, object, and supplement").
type Constituent int

// Constituent roles.
const (
	Subject Constituent = iota
	VerbRole
	Object
	Supplement
)

// FeatureOptions are the user-selectable extraction options of §3.3.
// The zero value selects nothing; use DefaultOptions for the paper's
// smoking configuration.
type FeatureOptions struct {
	// Option 1: parts of speech to extract.
	Verbs, Nouns, Adjectives, Adverbs bool
	// Option 2: sentence constituents to extract from. If none is set,
	// every constituent is used.
	Subject, Verb, Object, Supplement bool
	// Option 3: for a noun/adjective phrase, extract only the head word.
	HeadOnly bool
	// Option 4: use the lemma (uninflected form) of every word.
	UseLemma bool
	// Numeric Boolean features (the paper's proposed extension for fields
	// like alcohol use): for each threshold t two features are emitted,
	// "num<=t" and "num>t", set when some number in the text is ≤ t
	// (resp. > t).
	NumericThresholds []float64
}

// DefaultOptions is the configuration the paper reports for smoking
// behaviour: all parts of speech, all constituents, head-only disabled,
// lemma enabled.
func DefaultOptions() FeatureOptions {
	return FeatureOptions{
		Verbs: true, Nouns: true, Adjectives: true, Adverbs: true,
		UseLemma: true,
	}
}

// FeaturesFromSection converts an analyzed Document section into the
// Boolean feature map used by the ID3 classifier, consuming the
// section's cached POS tagging and linkage: each sentence is tagged at
// most once and parsed at most once per Document regardless of how many
// consumers read it.
func FeaturesFromSection(sec *textproc.DocSection, opts FeatureOptions) map[string]bool {
	feats := map[string]bool{}
	for i := range sec.Sentences() {
		extractSentence(sec, i, opts, feats)
	}
	return feats
}

// extractSentence folds sentence si of the section into feats. The
// sentence is parsed only when a constituent option requires it.
func extractSentence(sec *textproc.DocSection, si int, opts FeatureOptions, feats map[string]bool) {
	tagged := pos.TagSection(sec, si)
	// Constituent filter: parse the sentence; when the parse fails (or no
	// constituent option is set) every token passes the filter.
	wantConstituent := opts.Subject || opts.Verb || opts.Object || opts.Supplement
	var roles map[int]Constituent
	if wantConstituent {
		if lk, err := linkgram.ParseSection(sec, si); err == nil {
			roles = constituentRoles(lk, len(tagged))
		}
	}

	// Head-word filter: the last noun of each maximal noun run, the last
	// adjective of each maximal adjective run not followed by a noun.
	heads := map[int]bool{}
	if opts.HeadOnly {
		heads = headWords(tagged)
	}

	for i, tok := range tagged {
		if tok.Kind != textproc.Word {
			continue
		}
		if !posSelected(tok.Tag, opts) {
			continue
		}
		if roles != nil {
			if !constituentSelected(roles[i], opts) {
				continue
			}
		}
		if opts.HeadOnly && (tok.Tag.IsNoun() || tok.Tag.IsAdjective()) && !heads[i] {
			continue
		}
		w := strings.ToLower(tok.Text)
		if opts.UseLemma {
			w = lexicon.Lemma(w, lemmaClass(tok.Tag))
		}
		feats[w] = true
	}

	// Numeric Boolean features.
	if len(opts.NumericThresholds) > 0 {
		for _, ann := range textproc.AnnotateNumbers(sec.Sentences()[si]) {
			for _, th := range opts.NumericThresholds {
				v := ann.Value
				if ann.IsRange {
					// A range like "1-2" sets the ≤ feature from its upper
					// bound and the > feature from its lower bound.
					if ann.Value2 <= th {
						feats[fmt.Sprintf("num<=%g", th)] = true
					}
					if ann.Value > th {
						feats[fmt.Sprintf("num>%g", th)] = true
					}
					continue
				}
				if v <= th {
					feats[fmt.Sprintf("num<=%g", th)] = true
				} else {
					feats[fmt.Sprintf("num>%g", th)] = true
				}
			}
		}
	}
}

func posSelected(t pos.Tag, opts FeatureOptions) bool {
	switch {
	case t.IsVerb():
		return opts.Verbs
	case t.IsNoun():
		return opts.Nouns
	case t.IsAdjective():
		return opts.Adjectives
	case t.IsAdverb():
		return opts.Adverbs
	default:
		return false
	}
}

func constituentSelected(c Constituent, opts FeatureOptions) bool {
	switch c {
	case Subject:
		return opts.Subject
	case VerbRole:
		return opts.Verb
	case Object:
		return opts.Object
	default:
		return opts.Supplement
	}
}

func lemmaClass(t pos.Tag) lexicon.POSClass {
	switch {
	case t.IsVerb():
		return lexicon.Verb
	case t.IsNoun():
		return lexicon.Noun
	case t.IsAdjective():
		return lexicon.Adjective
	default:
		return lexicon.Any
	}
}

// constituentRoles assigns each token index a constituent role from the
// linkage: the S link's left word (plus its modifiers) is the subject,
// verbs are the verb, the O link's right word (plus modifiers) is the
// object, everything else is supplement.
func constituentRoles(lk *linkgram.Linkage, ntokens int) map[int]Constituent {
	roles := make(map[int]Constituent, ntokens)
	for i := 0; i < ntokens; i++ {
		roles[i] = Supplement
	}
	// Mark verbs.
	for _, w := range lk.Words {
		if w.TokenIndex >= 0 && w.Tag.IsVerb() {
			roles[w.TokenIndex] = VerbRole
		}
	}
	// Subject and object cores from S and O links. A parse with neither
	// link carries no constituent structure worth filtering on; report
	// that by returning nil so the caller falls back to all words.
	subjCore, objCore := -1, -1
	for _, l := range lk.Links {
		switch l.Label {
		case "S":
			subjCore = l.Left
		case "O":
			objCore = l.Right
		}
	}
	if subjCore < 0 && objCore < 0 {
		return nil
	}
	// Spread the role over pre-modifiers connected by A/AN/D links.
	assign := func(core int, role Constituent) {
		if core < 0 {
			return
		}
		group := map[int]bool{core: true}
		for changed := true; changed; {
			changed = false
			for _, l := range lk.Links {
				if (l.Label == "A" || l.Label == "AN" || l.Label == "D") && group[l.Right] && !group[l.Left] {
					group[l.Left] = true
					changed = true
				}
			}
		}
		for wi := range group {
			if ti := lk.Words[wi].TokenIndex; ti >= 0 {
				roles[ti] = role
			}
		}
	}
	assign(subjCore, Subject)
	assign(objCore, Object)
	return roles
}

// headWords returns the indices of head nouns/adjectives: the final word
// of each maximal {JJ,NN}* run ending in a noun, or the final adjective
// of an adjective-only run.
func headWords(tagged []pos.TaggedToken) map[int]bool {
	heads := map[int]bool{}
	i := 0
	for i < len(tagged) {
		if !(tagged[i].Tag.IsNoun() || tagged[i].Tag.IsAdjective()) {
			i++
			continue
		}
		j := i
		for j+1 < len(tagged) && (tagged[j+1].Tag.IsNoun() || tagged[j+1].Tag.IsAdjective()) {
			j++
		}
		heads[j] = true
		i = j + 1
	}
	return heads
}
